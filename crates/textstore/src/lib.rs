//! A text data-processing engine (inverted-index search substrate).
//!
//! Holds free-text documents (the paper's doctors'/nurses' notes in the
//! MIMIC scenario, Fig. 2) with a tokenizer, an inverted index, boolean
//! and TF-IDF ranked search, and bag-of-words feature extraction for the
//! ML pipeline.
//!
//! A term's postings are one `Vec` in ascending document order, and each
//! posting carries its document's token count beside the term frequency,
//! so no search looks anything up per posting. Boolean searches merge
//! the lists; the ranked search merges the query tokens' lists in
//! document order and sums a document's contributions in query-token
//! order from `0.0` — the additions a per-document accumulator made, in
//! the same order, so every score keeps its bits.
//!
//! # Examples
//!
//! ```
//! use pspp_textstore::TextStore;
//!
//! let mut store = TextStore::new("notes");
//! store.add_document(1, "patient stable, vitals improving");
//! store.add_document(2, "patient critical, ICU transfer");
//! let hits = store.search_all(&["patient", "icu"]);
//! assert_eq!(hits, vec![2]);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::{BTreeMap, HashMap};

use pspp_common::{EngineId, Error, Result};

/// A document id.
pub type DocId = u64;

/// One document's entry in a term's postings.
#[derive(Debug, Clone, Copy)]
struct Posting {
    doc: DocId,
    /// How often the term occurs in the document.
    tf: u32,
    /// The document's token count.
    len: u32,
}

/// The text engine.
#[derive(Debug, Clone)]
pub struct TextStore {
    id: EngineId,
    docs: BTreeMap<DocId, String>,
    /// term -> its postings, in ascending document order
    index: HashMap<String, Vec<Posting>>,
}

impl TextStore {
    /// An empty store.
    pub fn new(id: impl Into<EngineId>) -> Self {
        TextStore {
            id: id.into(),
            docs: BTreeMap::new(),
            index: HashMap::new(),
        }
    }

    /// The engine id.
    pub fn id(&self) -> &EngineId {
        &self.id
    }

    /// Lowercased alphanumeric tokens of `text`.
    pub fn tokenize(text: &str) -> Vec<String> {
        text.split(|c: char| !c.is_alphanumeric())
            .filter(|t| !t.is_empty())
            .map(str::to_lowercase)
            .collect()
    }

    /// Adds (or replaces) a document, maintaining the inverted index.
    pub fn add_document(&mut self, id: DocId, text: impl Into<String>) {
        let text = text.into();
        if self.docs.contains_key(&id) {
            self.remove_document(id);
        }
        let mut tokens = Self::tokenize(&text);
        let len = tokens.len() as u32;
        tokens.sort_unstable();
        for run in tokens.chunk_by(|a, b| a == b) {
            let posting = Posting {
                doc: id,
                tf: run.len() as u32,
                len,
            };
            let postings = self.index.entry(run[0].clone()).or_default();
            // Documents usually arrive in id order: then this is a push.
            let at = postings.partition_point(|p| p.doc < id);
            postings.insert(at, posting);
        }
        self.docs.insert(id, text);
    }

    /// Removes a document. Returns whether it existed.
    pub fn remove_document(&mut self, id: DocId) -> bool {
        let Some(text) = self.docs.remove(&id) else {
            return false;
        };
        for t in Self::tokenize(&text) {
            if let Some(postings) = self.index.get_mut(&t) {
                if let Ok(at) = postings.binary_search_by_key(&id, |p| p.doc) {
                    postings.remove(at);
                }
                if postings.is_empty() {
                    self.index.remove(&t);
                }
            }
        }
        true
    }

    /// The raw text of a document.
    pub fn document(&self, id: DocId) -> Option<&str> {
        self.docs.get(&id).map(String::as_str)
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// The postings of `term`, matched case-insensitively; empty for an
    /// unknown term.
    fn postings(&self, term: &str) -> &[Posting] {
        self.index
            .get(&term.to_lowercase())
            .map_or(&[], Vec::as_slice)
    }

    /// Documents containing **all** the given terms (boolean AND).
    pub fn search_all(&self, terms: &[&str]) -> Vec<DocId> {
        let Some((first, rest)) = terms.split_first() else {
            return Vec::new();
        };
        let mut out: Vec<DocId> = self.postings(first).iter().map(|p| p.doc).collect();
        for term in rest {
            let mut postings = self.postings(term).iter().map(|p| p.doc).peekable();
            // Both lists ascend: drop each kept doc the next list skips.
            out.retain(|&doc| {
                while postings.next_if(|&d| d < doc).is_some() {}
                postings.next_if_eq(&doc).is_some()
            });
        }
        out
    }

    /// Documents containing **any** of the given terms (boolean OR).
    pub fn search_any(&self, terms: &[&str]) -> Vec<DocId> {
        let mut out: Vec<DocId> = terms
            .iter()
            .flat_map(|term| self.postings(term).iter().map(|p| p.doc))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// TF-IDF ranked search: top `k` documents for a free-text query,
    /// by score (highest first), ties by ascending document id.
    ///
    /// A document's score sums, over the query's tokens in order (a
    /// repeated token counts again, an unknown one adds nothing),
    /// `tf / max(len, 1) · idf`, starting from `0.0`, with
    /// `idf = max(ln(n_docs / df), 0) + 1`.
    pub fn search_ranked(&self, query: &str, k: usize) -> Vec<(DocId, f64)> {
        let n_docs = self.docs.len() as f64;
        // Each known token's postings not yet merged, and its idf, in
        // query order.
        let mut lists: Vec<(&[Posting], f64)> = Self::tokenize(query)
            .iter()
            .filter_map(|term| self.index.get(term))
            .map(|p| (p.as_slice(), (n_docs / p.len() as f64).ln().max(0.0) + 1.0))
            .collect();
        let longest = lists.iter().map(|(p, _)| p.len()).max().unwrap_or(0);
        let mut ranked: Vec<(DocId, f64)> = Vec::with_capacity(longest);
        // Every list ascends, so the least head is the next document.
        while let Some(doc) = lists
            .iter()
            .filter_map(|(p, _)| p.first())
            .map(|p| p.doc)
            .min()
        {
            let mut score = 0.0f64;
            for (rest, idf) in &mut lists {
                if let Some((posting, tail)) = rest.split_first().filter(|(p, _)| p.doc == doc) {
                    let dl = f64::from(posting.len).max(1.0);
                    score += (f64::from(posting.tf) / dl) * *idf;
                    *rest = tail;
                }
            }
            ranked.push((doc, score));
        }
        // `ranked` ascends by document, so a stable sort by score alone
        // breaks ties by ascending document.
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        ranked.truncate(k);
        ranked
    }

    /// Bag-of-words feature vector for a document over a fixed
    /// vocabulary — the text→tensor CAST used by the clinical pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`Error::TableNotFound`] for an unknown document.
    pub fn features(&self, id: DocId, vocabulary: &[&str]) -> Result<Vec<f64>> {
        let text = self
            .docs
            .get(&id)
            .ok_or_else(|| Error::TableNotFound(format!("document {id}")))?;
        let tokens = Self::tokenize(text);
        let total = tokens.len().max(1) as f64;
        let mut counts: HashMap<String, u32> = HashMap::new();
        for t in tokens {
            *counts.entry(t).or_insert(0) += 1;
        }
        Ok(vocabulary
            .iter()
            .map(|v| f64::from(counts.get(&v.to_lowercase()).copied().unwrap_or(0)) / total)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> TextStore {
        let mut s = TextStore::new("notes");
        s.add_document(1, "Patient stable. Vitals improving daily.");
        s.add_document(2, "Patient critical: ICU transfer ordered.");
        s.add_document(3, "ICU rounds: patient stable, extubation planned.");
        s
    }

    #[test]
    fn tokenizer_normalizes() {
        assert_eq!(
            TextStore::tokenize("Hello, WORLD!  42-x"),
            vec!["hello", "world", "42", "x"]
        );
    }

    #[test]
    fn boolean_search() {
        let s = corpus();
        assert_eq!(s.search_all(&["patient", "stable"]), vec![1, 3]);
        assert_eq!(s.search_all(&["icu", "stable"]), vec![3]);
        assert_eq!(s.search_any(&["critical", "improving"]), vec![1, 2]);
        assert!(s.search_all(&["absent"]).is_empty());
    }

    #[test]
    fn case_insensitive_queries() {
        let s = corpus();
        assert_eq!(s.search_all(&["ICU"]), s.search_all(&["icu"]));
    }

    #[test]
    fn ranked_search_orders_by_relevance() {
        let s = corpus();
        let ranked = s.search_ranked("icu patient", 3);
        assert_eq!(ranked.len(), 3);
        // Docs 2 and 3 mention ICU; both outrank doc 1.
        let ids: Vec<DocId> = ranked.iter().map(|r| r.0).collect();
        assert!(ids[0] == 2 || ids[0] == 3);
        assert_eq!(ids[2], 1);
        assert!(ranked[0].1 >= ranked[1].1);
    }

    #[test]
    fn replace_document_updates_index() {
        let mut s = corpus();
        s.add_document(1, "completely different words");
        assert!(s.search_all(&["improving"]).is_empty());
        assert_eq!(s.search_all(&["different"]), vec![1]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn remove_document_cleans_postings() {
        let mut s = corpus();
        assert!(s.remove_document(2));
        assert!(!s.remove_document(2));
        assert!(s.search_all(&["critical"]).is_empty());
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn feature_extraction() {
        let s = corpus();
        // Doc 2 has five tokens.
        let f = s.features(2, &["patient", "ICU", "stable"]).unwrap();
        assert_eq!(f, [1.0 / 5.0, 1.0 / 5.0, 0.0]);
        assert!(s.features(99, &["x"]).is_err());
    }
}
