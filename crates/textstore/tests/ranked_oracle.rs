//! The text store's searches against a reference scorer: the inverted
//! index as `term -> (doc -> tf)` maps with a separate `doc -> length`
//! map, and a ranked search that accumulates each document's score in a
//! hash map entry per posting, in query-token order, then sorts by
//! (score desc, doc asc). The store keeps each term's postings as one
//! doc-ordered list carrying the document's length and merges the
//! lists; every answer must be the reference's, document by document and
//! every score by its bits.
//!
//! Corpora are seeded `SplitMix64` draws over a small vocabulary, so
//! documents share terms, lengths tie and scores tie. They replace and
//! remove documents and hold documents with no tokens; queries repeat
//! tokens, mix case and ask for unknown ones, at `k` = 0, 1, every hit
//! and more.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use pspp_common::SplitMix64;
use pspp_textstore::{DocId, TextStore};

/// The reference store: the index as maps, scored through a hash map.
#[derive(Default)]
struct Reference {
    docs: BTreeMap<DocId, String>,
    index: HashMap<String, BTreeMap<DocId, u32>>,
    doc_len: BTreeMap<DocId, u32>,
}

impl Reference {
    fn add_document(&mut self, id: DocId, text: &str) {
        if self.docs.contains_key(&id) {
            self.remove_document(id);
        }
        let tokens = TextStore::tokenize(text);
        for t in &tokens {
            *self
                .index
                .entry(t.clone())
                .or_default()
                .entry(id)
                .or_insert(0) += 1;
        }
        self.doc_len.insert(id, tokens.len() as u32);
        self.docs.insert(id, text.to_owned());
    }

    fn remove_document(&mut self, id: DocId) -> bool {
        let Some(text) = self.docs.remove(&id) else {
            return false;
        };
        for t in TextStore::tokenize(&text) {
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

    fn search_all(&self, terms: &[&str]) -> Vec<DocId> {
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

    fn search_any(&self, terms: &[&str]) -> Vec<DocId> {
        let mut out = BTreeSet::new();
        for term in terms {
            if let Some(p) = self.index.get(&term.to_lowercase()) {
                out.extend(p.keys().copied());
            }
        }
        out.into_iter().collect()
    }

    fn search_ranked(&self, query: &str, k: usize) -> Vec<(DocId, f64)> {
        let n_docs = self.docs.len() as f64;
        let mut scores: HashMap<DocId, f64> = HashMap::new();
        for term in TextStore::tokenize(query) {
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
}

/// The vocabulary documents and queries draw from: few words, so
/// documents share terms and scores tie.
const WORDS: [&str; 8] = [
    "icu", "sepsis", "stable", "patient", "vent", "fever", "x1", "42",
];

/// Words no document holds.
const UNKNOWN: [&str; 2] = ["absent", "zz9"];

/// `word` with each letter upper-cased at random.
fn mixed_case(rng: &mut SplitMix64, word: &str) -> String {
    word.chars()
        .map(|c| {
            if rng.next_bounded(3) == 0 {
                c.to_ascii_uppercase()
            } else {
                c
            }
        })
        .collect()
}

/// A document's text: 0–9 vocabulary words in mixed case between
/// separators; an empty or separators-only text has no tokens.
fn document(rng: &mut SplitMix64) -> String {
    let separators = [" ", ", ", ". ", "--", ";"];
    let mut text = String::new();
    if rng.next_bounded(8) == 0 {
        text.push_str(separators[rng.next_index(separators.len())]);
        return text;
    }
    for _ in 0..rng.next_bounded(10) {
        let word = WORDS[rng.next_index(WORDS.len())];
        text.push_str(&mixed_case(rng, word));
        text.push_str(separators[rng.next_index(separators.len())]);
    }
    text
}

/// A query's terms: 0–6 of the vocabulary and unknown words, in mixed
/// case, often repeating.
fn query(rng: &mut SplitMix64) -> Vec<String> {
    (0..rng.next_bounded(7))
        .map(|_| {
            let word = if rng.next_bounded(6) == 0 {
                UNKNOWN[rng.next_index(UNKNOWN.len())]
            } else {
                WORDS[rng.next_index(WORDS.len())]
            };
            mixed_case(rng, word)
        })
        .collect()
}

/// A store and its reference after the same random history: documents
/// added over ids `0..ids` (so some are replaced), some removed (an
/// absent id included).
fn corpus(rng: &mut SplitMix64, ids: u64) -> (TextStore, Reference) {
    let mut store = TextStore::new("notes");
    let mut reference = Reference::default();
    for _ in 0..rng.next_bounded(3 * ids) + 1 {
        let id = rng.next_bounded(ids);
        if rng.next_bounded(6) == 0 {
            assert_eq!(store.remove_document(id), reference.remove_document(id));
        } else {
            let text = document(rng);
            store.add_document(id, text.clone());
            reference.add_document(id, &text);
        }
    }
    assert_eq!(store.len(), reference.docs.len());
    (store, reference)
}

/// Ranked answers as (doc, score bits), so `==` compares bits.
fn bits(ranked: &[(DocId, f64)]) -> Vec<(DocId, u64)> {
    ranked.iter().map(|&(d, s)| (d, s.to_bits())).collect()
}

/// Checks every search the store answers for `terms` against the
/// reference's, at `k` = 0, 1, every hit, past every hit and one drawn.
fn agree(rng: &mut SplitMix64, store: &TextStore, reference: &Reference, terms: &[String]) {
    let refs: Vec<&str> = terms.iter().map(String::as_str).collect();
    assert_eq!(
        store.search_all(&refs),
        reference.search_all(&refs),
        "search_all {refs:?}"
    );
    assert_eq!(
        store.search_any(&refs),
        reference.search_any(&refs),
        "search_any {refs:?}"
    );
    let text = terms.join(" ");
    let hits = reference.search_ranked(&text, usize::MAX).len();
    let drawn = rng.next_index(hits + 2);
    for k in [0, 1, hits, hits + 3, drawn, usize::MAX] {
        assert_eq!(
            bits(&store.search_ranked(&text, k)),
            bits(&reference.search_ranked(&text, k)),
            "search_ranked {text:?} k {k}"
        );
    }
}

#[test]
fn random_corpora_and_queries_rank_as_the_reference_does() {
    let mut rng = SplitMix64::new(0x5eed_7e47);
    for case in 0..400 {
        let ids = 1 + case % 40;
        let (store, reference) = corpus(&mut rng, ids);
        for _ in 0..12 {
            let terms = query(&mut rng);
            agree(&mut rng, &store, &reference, &terms);
        }
    }
}

#[test]
fn three_terms_in_one_document_sum_in_query_order() {
    // Three distinct contributions: summed in another order, some of
    // these scores change their last bits.
    let mut rng = SplitMix64::new(3);
    let mut store = TextStore::new("notes");
    let mut reference = Reference::default();
    for id in 0..60 {
        let text = document(&mut rng);
        store.add_document(id, text.clone());
        reference.add_document(id, &text);
    }
    for order in [
        ["icu", "sepsis", "fever"],
        ["fever", "sepsis", "icu"],
        ["x1", "stable", "vent"],
        ["42", "patient", "icu"],
    ] {
        let terms: Vec<String> = order.iter().map(|t| t.to_string()).collect();
        agree(&mut rng, &store, &reference, &terms);
    }
}

#[test]
fn equal_scores_rank_by_ascending_document() {
    let mut store = TextStore::new("notes");
    let mut reference = Reference::default();
    for id in [9, 2, 7, 4] {
        store.add_document(id, "icu sepsis");
        reference.add_document(id, "icu sepsis");
    }
    store.add_document(5, "stable");
    reference.add_document(5, "stable");
    let ranked = store.search_ranked("ICU", 3);
    assert_eq!(ranked.iter().map(|r| r.0).collect::<Vec<_>>(), [2, 4, 7]);
    let mut rng = SplitMix64::new(4);
    agree(
        &mut rng,
        &store,
        &reference,
        &["icu".into(), "sepsis".into()],
    );
}

#[test]
fn a_replaced_document_is_scored_at_its_new_length() {
    let mut store = TextStore::new("notes");
    let mut reference = Reference::default();
    for (id, text) in [(1, "icu sepsis"), (2, "icu"), (1, "icu fever fever stable")] {
        store.add_document(id, text);
        reference.add_document(id, text);
    }
    let ranked = store.search_ranked("icu", 2);
    assert_eq!(ranked[0].0, 2);
    assert_eq!(ranked[1].1, ranked[0].1 / 4.0);
    let mut rng = SplitMix64::new(5);
    agree(
        &mut rng,
        &store,
        &reference,
        &["icu".into(), "fever".into()],
    );
}

#[test]
fn removed_and_tokenless_documents_leave_no_postings() {
    let mut store = TextStore::new("notes");
    let mut reference = Reference::default();
    for (id, text) in [(1, "icu"), (2, " ,. "), (3, ""), (4, "ICU icu sepsis")] {
        store.add_document(id, text);
        reference.add_document(id, text);
    }
    assert!(store.remove_document(4) && reference.remove_document(4));
    assert!(!store.remove_document(4));
    // Four documents were added and one removed: n_docs is 3, and the
    // two with no tokens count in it.
    assert_eq!(store.search_ranked("icu sepsis", 10).len(), 1);
    assert!(store.search_any(&["sepsis"]).is_empty());
    let mut rng = SplitMix64::new(6);
    for terms in [
        vec![],
        vec!["icu".to_string(), "ICU".to_string()],
        vec!["".into()],
    ] {
        agree(&mut rng, &store, &reference, &terms);
    }
}
