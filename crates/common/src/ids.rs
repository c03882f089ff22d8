//! Identifier newtypes for engines and datasets.

use std::fmt;

/// Identifies a registered engine instance within a Polystore++ deployment.
///
/// Multiple instances of the same [`crate::EngineKind`] may coexist (the
/// paper's DB1/DB2 example in §III both speak relational).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EngineId(String);

impl EngineId {
    /// Creates an id from a human-readable name (e.g. `"db1"`).
    pub fn new(name: impl Into<String>) -> Self {
        EngineId(name.into())
    }

    /// The underlying name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for EngineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for EngineId {
    fn from(s: &str) -> Self {
        EngineId::new(s)
    }
}

impl From<String> for EngineId {
    fn from(s: String) -> Self {
        EngineId(s)
    }
}

/// A fully qualified reference to a dataset: which engine holds it and its
/// name inside that engine.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableRef {
    /// Hosting engine.
    pub engine: EngineId,
    /// Dataset name within the engine (table / series / index / log name).
    pub name: String,
}

impl TableRef {
    /// Creates a reference.
    pub fn new(engine: impl Into<EngineId>, name: impl Into<String>) -> Self {
        TableRef {
            engine: engine.into(),
            name: name.into(),
        }
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.engine, self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ref_display() {
        let t = TableRef::new("db1", "admissions");
        assert_eq!(t.to_string(), "db1.admissions");
    }

    #[test]
    fn engine_id_ordering_is_lexicographic() {
        assert!(EngineId::new("a") < EngineId::new("b"));
    }
}
