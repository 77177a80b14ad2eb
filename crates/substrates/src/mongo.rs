//! A MongoDB-like in-memory document store.
//!
//! The paper's topologies end in "Mongo bolts" that "simply save the
//! results into separate collections in a Mongo database for verification".
//! This store plays that role: sink bolts insert documents, tests and
//! examples read collections back to verify end-to-end correctness (e.g.
//! that Word Count's counts match the corpus).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use tstorm_types::FxHashMap;

/// A flat document: ordered field → value strings.
///
/// Flat string documents are all the paper's bolts produce (word/count
/// pairs, log-entry summaries, counter snapshots).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Document {
    fields: BTreeMap<String, String>,
}

impl Document {
    /// Creates an empty document.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style field insertion.
    #[must_use]
    pub fn with(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.fields.insert(key.into(), value.into());
        self
    }

    /// Sets a field.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.fields.insert(key.into(), value.into());
    }

    /// Reads a field.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields.get(key).map(String::as_str)
    }

    /// Number of fields.
    #[must_use]
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if the document has no fields.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Iterates `(field, value)` pairs in field order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.fields.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Overwrites `field`'s value in place, reusing the existing string
    /// buffer; returns `false` (writing nothing) if the field is absent.
    fn set_in_place(&mut self, field: &str, value: &str) -> bool {
        match self.fields.get_mut(field) {
            Some(v) => {
                v.clear();
                v.push_str(value);
                true
            }
            None => false,
        }
    }
}

/// A lazily-maintained `key value → row position` index for one
/// `(collection, key_field)` pair, so [`MongoStore::upsert_by`] runs in
/// O(1) instead of scanning the collection per call (the Word Count
/// Mongo bolts upsert once per word tuple, which made the scan the
/// dominant cost of the whole workload).
///
/// `covered` counts the rows `[0, covered)` already folded into the map;
/// plain [`MongoStore::insert`] appends rows without touching indexes,
/// and the next upsert extends coverage. First-occurrence entries win,
/// matching the "replace the *first* matching document" semantics of the
/// original linear scan.
#[derive(Debug, Clone, Default)]
struct KeyIndex {
    map: FxHashMap<String, usize>,
    covered: usize,
}

impl KeyIndex {
    fn cover(&mut self, rows: &[Document], key_field: &str) {
        for (i, row) in rows.iter().enumerate().skip(self.covered) {
            if let Some(v) = row.get(key_field) {
                self.map.entry(v.to_owned()).or_insert(i);
            }
        }
        self.covered = rows.len();
    }

    fn invalidate(&mut self) {
        self.map.clear();
        self.covered = 0;
    }
}

/// An in-memory collection/document store with insert counting.
///
/// # Example
///
/// ```
/// use tstorm_substrates::{Document, MongoStore};
///
/// let mut db = MongoStore::new();
/// db.upsert_by("words", "word", Document::new().with("word", "cat").with("count", "1"));
/// db.upsert_by("words", "word", Document::new().with("word", "cat").with("count", "2"));
/// assert_eq!(db.count("words"), 1); // one row per word
/// assert_eq!(db.find_by("words", "word", "cat").unwrap().get("count"), Some("2"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MongoStore {
    collections: BTreeMap<String, Vec<Document>>,
    indexes: BTreeMap<String, BTreeMap<String, KeyIndex>>,
}

impl MongoStore {
    /// Creates an empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a document into a collection (created on first use).
    ///
    /// Appends only; any upsert indexes on the collection pick the new
    /// row up lazily on their next use.
    pub fn insert(&mut self, collection: &str, doc: Document) {
        if !self.collections.contains_key(collection) {
            self.collections.insert(collection.to_owned(), Vec::new());
        }
        self.collections
            .get_mut(collection)
            .expect("ensured above")
            .push(doc);
    }

    /// Upserts by key field: if a document with the same value of
    /// `key_field` exists, the *first* such document is replaced;
    /// otherwise the document is appended. This is how the Word Count
    /// Mongo bolt keeps one row per word.
    ///
    /// Runs in O(1) amortised via a per-`(collection, key_field)` key
    /// index; observable behaviour (row order, counts, stored values)
    /// is identical to the original first-match linear scan.
    pub fn upsert_by(&mut self, collection: &str, key_field: &str, doc: Document) {
        if !self.collections.contains_key(collection) {
            self.collections.insert(collection.to_owned(), Vec::new());
        }
        let coll = self.collections.get_mut(collection).expect("ensured above");
        if doc.get(key_field).is_none() {
            coll.push(doc);
            return;
        }
        let per = match self.indexes.get_mut(collection) {
            Some(per) => per,
            None => {
                self.indexes.insert(collection.to_owned(), BTreeMap::new());
                self.indexes.get_mut(collection).expect("ensured above")
            }
        };
        if !per.contains_key(key_field) {
            per.insert(key_field.to_owned(), KeyIndex::default());
        }
        let idx = per.get_mut(key_field).expect("ensured above");
        idx.cover(coll, key_field);
        let key = doc.get(key_field).expect("checked above");
        let mut replace_at = None;
        if let Some(&pos) = idx.map.get(key) {
            if coll[pos].get(key_field) == Some(key) {
                replace_at = Some(pos);
            } else {
                // A replacement through a different key field changed
                // this row since it was indexed; rebuild and retry.
                idx.invalidate();
                idx.cover(coll, key_field);
                replace_at = idx.map.get(key).copied();
            }
        }
        match replace_at {
            Some(pos) => {
                coll[pos] = doc;
                // The row's other fields changed too: indexes keyed on
                // them are now stale, so drop them for a lazy rebuild.
                for (field, other) in per.iter_mut() {
                    if field != key_field {
                        other.invalidate();
                    }
                }
            }
            None => {
                idx.map.insert(key.to_owned(), coll.len());
                coll.push(doc);
            }
        }
    }

    /// Upserts the two-field document `{key_field: key, value_field:
    /// value}` by `key_field` — the Word Count sink's per-tuple
    /// operation. Produces exactly the same store state as
    /// [`MongoStore::upsert_by`] with that document, but when an indexed
    /// row is hit it rewrites the value string in place instead of
    /// building (and dropping) a fresh [`Document`] per call.
    pub fn upsert_kv(
        &mut self,
        collection: &str,
        key_field: &str,
        key: &str,
        value_field: &str,
        value: &str,
    ) {
        if key_field != value_field {
            if let (Some(coll), Some(per)) = (
                self.collections.get_mut(collection),
                self.indexes.get_mut(collection),
            ) {
                if let Some(idx) = per.get_mut(key_field) {
                    idx.cover(coll, key_field);
                    if let Some(&pos) = idx.map.get(key) {
                        let row = &mut coll[pos];
                        // Two fields with the matching key means the row
                        // is exactly {key_field: key, value_field: _},
                        // so an in-place value rewrite equals a replace.
                        if row.len() == 2
                            && row.get(key_field) == Some(key)
                            && row.set_in_place(value_field, value)
                        {
                            for (field, other) in per.iter_mut() {
                                if field != key_field {
                                    other.invalidate();
                                }
                            }
                            return;
                        }
                    }
                }
            }
        }
        self.upsert_by(
            collection,
            key_field,
            Document::new()
                .with(key_field, key)
                .with(value_field, value),
        );
    }

    /// All documents in a collection (empty slice if absent).
    #[must_use]
    pub fn collection(&self, name: &str) -> &[Document] {
        self.collections.get(name).map_or(&[], Vec::as_slice)
    }

    /// Number of documents in a collection.
    #[must_use]
    pub fn count(&self, name: &str) -> usize {
        self.collection(name).len()
    }

    /// Finds the first document in a collection whose `field` equals
    /// `value`.
    #[must_use]
    pub fn find_by(&self, collection: &str, field: &str, value: &str) -> Option<&Document> {
        self.collection(collection)
            .iter()
            .find(|d| d.get(field) == Some(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_count() {
        let mut m = MongoStore::new();
        m.insert("words", Document::new().with("word", "cat").with("n", "1"));
        m.insert("words", Document::new().with("word", "dog").with("n", "2"));
        assert_eq!(m.count("words"), 2);
        assert_eq!(m.count("missing"), 0);
    }

    #[test]
    fn find_by_field() {
        let mut m = MongoStore::new();
        m.insert("words", Document::new().with("word", "cat").with("n", "3"));
        let d = m.find_by("words", "word", "cat").expect("found");
        assert_eq!(d.get("n"), Some("3"));
        assert!(m.find_by("words", "word", "dog").is_none());
    }

    #[test]
    fn upsert_replaces_matching_key() {
        let mut m = MongoStore::new();
        m.upsert_by(
            "words",
            "word",
            Document::new().with("word", "cat").with("n", "1"),
        );
        m.upsert_by(
            "words",
            "word",
            Document::new().with("word", "cat").with("n", "5"),
        );
        m.upsert_by(
            "words",
            "word",
            Document::new().with("word", "dog").with("n", "2"),
        );
        assert_eq!(m.count("words"), 2);
        assert_eq!(
            m.find_by("words", "word", "cat").unwrap().get("n"),
            Some("5")
        );
    }

    #[test]
    fn upsert_without_key_field_inserts() {
        let mut m = MongoStore::new();
        m.upsert_by("c", "k", Document::new().with("other", "1"));
        m.upsert_by("c", "k", Document::new().with("other", "2"));
        assert_eq!(m.count("c"), 2);
    }

    #[test]
    fn upsert_kv_matches_upsert_by() {
        let mut a = MongoStore::new();
        let mut b = MongoStore::new();
        for (k, v) in [("cat", "1"), ("dog", "1"), ("cat", "2"), ("cat", "3")] {
            a.upsert_kv("words", "word", k, "n", v);
            b.upsert_by(
                "words",
                "word",
                Document::new().with("word", k).with("n", v),
            );
        }
        assert_eq!(a.collection("words"), b.collection("words"));
        assert_eq!(
            a.find_by("words", "word", "cat").unwrap().get("n"),
            Some("3")
        );
    }

    #[test]
    fn plain_insert_rows_are_picked_up_by_later_upserts() {
        // `insert` appends without touching indexes; the next upsert
        // must still find the row (lazy coverage).
        let mut m = MongoStore::new();
        m.upsert_by("c", "k", Document::new().with("k", "a").with("n", "1"));
        m.insert("c", Document::new().with("k", "b").with("n", "1"));
        m.upsert_by("c", "k", Document::new().with("k", "b").with("n", "2"));
        assert_eq!(m.count("c"), 2);
        assert_eq!(m.find_by("c", "k", "b").unwrap().get("n"), Some("2"));
    }

    #[test]
    fn mixed_key_fields_replace_the_first_match() {
        // Upserting by a second key field mutates rows behind the first
        // field's index; the index must notice and stay first-match
        // correct.
        let mut m = MongoStore::new();
        m.upsert_by("c", "k", Document::new().with("k", "x").with("v", "old"));
        m.upsert_by("c", "k", Document::new().with("k", "y").with("v", "old"));
        // Replace the row k=x through the `v` field (both rows have
        // v=old; the first — k=x — must be the one replaced).
        m.upsert_by("c", "v", Document::new().with("k", "z").with("v", "old"));
        assert_eq!(m.count("c"), 2);
        assert_eq!(m.collection("c")[0].get("k"), Some("z"));
        // The k-index must now miss "x" and find "z" without
        // resurrecting the replaced row.
        m.upsert_by("c", "k", Document::new().with("k", "x").with("v", "new"));
        assert_eq!(m.count("c"), 3);
        m.upsert_by("c", "k", Document::new().with("k", "z").with("v", "new2"));
        assert_eq!(m.count("c"), 3);
        assert_eq!(m.find_by("c", "k", "z").unwrap().get("v"), Some("new2"));
    }

    #[test]
    fn upsert_kv_with_equal_key_and_value_fields_inserts_like_upsert_by() {
        let mut a = MongoStore::new();
        let mut b = MongoStore::new();
        a.upsert_kv("c", "k", "x", "k", "y");
        b.upsert_by("c", "k", Document::new().with("k", "x").with("k", "y"));
        assert_eq!(a.collection("c"), b.collection("c"));
    }

    #[test]
    fn document_accessors() {
        let mut d = Document::new();
        assert!(d.is_empty());
        d.set("a", "1");
        assert_eq!(d.get("a"), Some("1"));
        assert_eq!(d.len(), 1);
        let pairs: Vec<_> = d.iter().collect();
        assert_eq!(pairs, vec![("a", "1")]);
    }
}
