//! A text data-processing engine (inverted-index search substrate).
//!
//! Holds free-text documents (the paper's doctors'/nurses' notes in the
//! MIMIC scenario, Fig. 2) with a tokenizer, an inverted index, boolean
//! and TF-IDF ranked search, and bag-of-words feature extraction for the
//! ML pipeline.
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

use std::collections::{BTreeMap, BTreeSet, HashMap};

use pspp_common::{EngineId, Error, Result};

/// A document id.
pub type DocId = u64;

/// The text engine.
#[derive(Debug, Clone)]
pub struct TextStore {
    id: EngineId,
    docs: BTreeMap<DocId, String>,
    /// term -> (doc -> term frequency)
    index: HashMap<String, BTreeMap<DocId, u32>>,
    /// doc -> token count
    doc_len: BTreeMap<DocId, u32>,
}

impl TextStore {
    /// An empty store.
    pub fn new(id: impl Into<EngineId>) -> Self {
        TextStore {
            id: id.into(),
            docs: BTreeMap::new(),
            index: HashMap::new(),
            doc_len: BTreeMap::new(),
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
        let tokens = Self::tokenize(&text);
        for t in &tokens {
            *self
                .index
                .entry(t.clone())
                .or_default()
                .entry(id)
                .or_insert(0) += 1;
        }
        self.doc_len.insert(id, tokens.len() as u32);
        self.docs.insert(id, text);
    }

    /// Removes a document. Returns whether it existed.
    pub fn remove_document(&mut self, id: DocId) -> bool {
        let Some(text) = self.docs.remove(&id) else {
            return false;
        };
        for t in Self::tokenize(&text) {
            if let Some(postings) = self.index.get_mut(&t) {
                postings.remove(&id);
                if postings.is_empty() {
                    self.index.remove(&t);
                }
            }
        }
        self.doc_len.remove(&id);
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

    /// Documents containing **all** the given terms (boolean AND).
    pub fn search_all(&self, terms: &[&str]) -> Vec<DocId> {
        let mut result: Option<BTreeSet<DocId>> = None;
        for term in terms {
            let docs: BTreeSet<DocId> = self
                .index
                .get(&term.to_lowercase())
                .map(|p| p.keys().copied().collect())
                .unwrap_or_default();
            result = Some(match result {
                None => docs,
                Some(acc) => acc.intersection(&docs).copied().collect(),
            });
        }
        result.unwrap_or_default().into_iter().collect()
    }

    /// Documents containing **any** of the given terms (boolean OR).
    pub fn search_any(&self, terms: &[&str]) -> Vec<DocId> {
        let mut out = BTreeSet::new();
        for term in terms {
            if let Some(p) = self.index.get(&term.to_lowercase()) {
                out.extend(p.keys().copied());
            }
        }
        out.into_iter().collect()
    }

    /// TF-IDF ranked search: top `k` documents for a free-text query.
    pub fn search_ranked(&self, query: &str, k: usize) -> Vec<(DocId, f64)> {
        let n_docs = self.docs.len() as f64;
        let mut scores: HashMap<DocId, f64> = HashMap::new();
        for term in Self::tokenize(query) {
            let Some(p) = self.index.get(&term) else {
                continue;
            };
            let idf = (n_docs / p.len() as f64).ln().max(0.0) + 1.0;
            for (&doc, &tf) in p {
                let dl = f64::from(self.doc_len[&doc]).max(1.0);
                *scores.entry(doc).or_insert(0.0) += (f64::from(tf) / dl) * idf;
            }
        }
        let mut ranked: Vec<(DocId, f64)> = scores.into_iter().collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
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
        let mut counts: HashMap<String, u32> = HashMap::new();
        for t in Self::tokenize(text) {
            *counts.entry(t).or_insert(0) += 1;
        }
        let total = self.doc_len[&id].max(1) as f64;
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
        let f = s.features(2, &["patient", "icu", "stable"]).unwrap();
        assert_eq!(f.len(), 3);
        assert!(f[0] > 0.0 && f[1] > 0.0);
        assert_eq!(f[2], 0.0);
        assert!(s.features(99, &["x"]).is_err());
    }
}
