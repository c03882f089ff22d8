//! Column schemas shared by the relational model and the CAST layer.

use std::collections::HashMap;
use std::fmt;

use crate::value::DataType;
use crate::{Error, Result, Row, TableRef};

/// A named, typed column.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Field {
    /// Column name, unique within a [`Schema`].
    pub name: String,
    /// Column type.
    pub data_type: DataType,
    /// Whether NULLs are allowed.
    pub nullable: bool,
}

impl Field {
    /// A nullable field.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Field {
            name: name.into(),
            data_type,
            nullable: true,
        }
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.name, self.data_type)?;
        if !self.nullable {
            f.write_str(" not null")?;
        }
        Ok(())
    }
}

/// An ordered list of [`Field`]s describing a record shape.
///
/// # Examples
///
/// ```
/// use pspp_common::{Schema, DataType};
/// let s = Schema::new(vec![("id", DataType::Int), ("name", DataType::Str)]);
/// assert_eq!(s.index_of("name"), Some(1));
/// assert_eq!(s.arity(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Builds a schema of nullable fields from `(name, type)` pairs.
    pub fn new<N: Into<String>>(fields: Vec<(N, DataType)>) -> Self {
        Schema {
            fields: fields.into_iter().map(|(n, t)| Field::new(n, t)).collect(),
        }
    }

    /// Builds a schema from explicit [`Field`]s.
    pub fn from_fields(fields: Vec<Field>) -> Self {
        Schema { fields }
    }

    /// An empty schema (zero columns).
    pub fn empty() -> Self {
        Schema { fields: vec![] }
    }

    /// The fields, in column order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// Position of column `name`, if present.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// The field named `name`, if present.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// Position of column `name`, or a [`Error::ColumnNotFound`].
    pub fn require(&self, name: &str) -> Result<usize> {
        self.index_of(name)
            .ok_or_else(|| Error::ColumnNotFound(name.to_owned()))
    }

    /// Column names in order.
    pub fn names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }

    /// A new schema keeping only the named columns, in the given order.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ColumnNotFound`] if any name is absent.
    pub fn project(&self, names: &[&str]) -> Result<Schema> {
        let mut fields = Vec::with_capacity(names.len());
        for n in names {
            let idx = self.require(n)?;
            fields.push(self.fields[idx].clone());
        }
        Ok(Schema { fields })
    }

    /// Concatenates two schemas (e.g. for join output). A right column
    /// whose name is taken gets the first of `x_r`, `x_r2`, `x_r3`, …
    /// that no left column, no right column and no earlier renamed one
    /// has, so a join of schemas without repeated names repeats none:
    /// `(a ⋈ b) ⋈ c` over three `pid`s is `pid, pid_r, pid_r2`.
    /// [`Schema::unsuffixed`] undoes the renaming.
    pub fn join(&self, right: &Schema) -> Schema {
        let mut fields = self.fields.clone();
        for f in &right.fields {
            let mut f = f.clone();
            if fields.iter().any(|g| g.name == f.name) {
                let taken = |name: &str| fields.iter().chain(&right.fields).any(|g| g.name == name);
                let mut name = format!("{}_r", f.name);
                for n in 2.. {
                    if !taken(&name) {
                        break;
                    }
                    name = format!("{}_r{n}", f.name);
                }
                f.name = name;
            }
            fields.push(f);
        }
        Schema { fields }
    }

    /// The right column's own name behind a name [`Schema::join`] gave
    /// it (`x_r`, `x_r2`, … → `x`); `None` when `name` has no such
    /// suffix.
    pub fn unsuffixed(name: &str) -> Option<&str> {
        name.trim_end_matches(|c: char| c.is_ascii_digit())
            .strip_suffix("_r")
    }

    /// Validates `row` against this schema (arity, types, nullability).
    ///
    /// # Errors
    ///
    /// Returns [`Error::SchemaMismatch`] describing the first violation.
    pub fn check_row(&self, row: &Row) -> Result<()> {
        if row.len() != self.arity() {
            return Err(Error::SchemaMismatch(format!(
                "expected {} columns, got {}",
                self.arity(),
                row.len()
            )));
        }
        for (field, value) in self.fields.iter().zip(row.values()) {
            if value.is_null() {
                if !field.nullable {
                    return Err(Error::SchemaMismatch(format!(
                        "null in not-null column {}",
                        field.name
                    )));
                }
                continue;
            }
            if value.data_type() != Some(field.data_type) {
                return Err(Error::SchemaMismatch(format!(
                    "column {} expects {}, got {:?}",
                    field.name, field.data_type, value
                )));
            }
        }
        Ok(())
    }
}

/// Anything that can answer "which columns does this stored table
/// have?" — the frontend catalog in a deployed system, a plain map in
/// tests. The optimizer's rewrites use it to tell which side of a join
/// a filter's columns come from.
pub trait SchemaLookup {
    /// The schema of `table`, when known.
    fn table_schema(&self, table: &TableRef) -> Option<&Schema>;
}

impl SchemaLookup for HashMap<TableRef, Schema> {
    fn table_schema(&self, table: &TableRef) -> Option<&Schema> {
        self.get(table)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{field}")?;
        }
        f.write_str(")")
    }
}

impl FromIterator<Field> for Schema {
    fn from_iter<T: IntoIterator<Item = Field>>(iter: T) -> Self {
        Schema {
            fields: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

    fn sample() -> Schema {
        Schema::new(vec![
            ("id", DataType::Int),
            ("name", DataType::Str),
            ("score", DataType::Float),
        ])
    }

    #[test]
    fn index_and_field_lookup() {
        let s = sample();
        assert_eq!(s.index_of("score"), Some(2));
        assert_eq!(s.index_of("nope"), None);
        assert!(s.require("nope").is_err());
        assert_eq!(s.field("name").unwrap().data_type, DataType::Str);
    }

    #[test]
    fn project_keeps_order() {
        let s = sample().project(&["score", "id"]).unwrap();
        assert_eq!(s.names(), vec!["score", "id"]);
    }

    #[test]
    fn join_renames_duplicates() {
        let left = sample();
        let right = Schema::new(vec![("id", DataType::Int), ("city", DataType::Str)]);
        let j = left.join(&right);
        assert_eq!(j.names(), vec!["id", "name", "score", "id_r", "city"]);
    }

    /// Chained joins over one name number the suffix, and every given
    /// name maps back to the right column's own.
    #[test]
    fn a_second_join_over_the_same_name_picks_a_free_one() {
        let pid = |other: &str| Schema::new(vec![("pid", DataType::Int), (other, DataType::Int)]);
        let once = pid("a").join(&pid("b"));
        assert_eq!(once.names(), vec!["pid", "a", "pid_r", "b"]);
        let twice = once.join(&pid("c"));
        assert_eq!(twice.names(), vec!["pid", "a", "pid_r", "b", "pid_r2", "c"]);
        let thrice = twice.join(&pid("d"));
        assert_eq!(thrice.names()[6..], ["pid_r3", "d"]);
        for name in ["pid_r", "pid_r2", "pid_r3"] {
            assert_eq!(Schema::unsuffixed(name), Some("pid"));
        }
        assert_eq!(Schema::unsuffixed("pid"), None);
    }

    /// A suffixed name the right side already has is skipped, and so is
    /// one the left side has.
    #[test]
    fn join_skips_suffixed_names_either_side_has() {
        let x = Schema::new(vec![("x", DataType::Int)]);
        let right = Schema::new(vec![("x", DataType::Int), ("x_r", DataType::Str)]);
        assert_eq!(x.join(&right).names(), vec!["x", "x_r2", "x_r"]);
        let left = Schema::new(vec![("x", DataType::Int), ("x_r", DataType::Str)]);
        assert_eq!(left.join(&x).names(), vec!["x", "x_r", "x_r2"]);
        let v2 = Schema::new(vec![("v2", DataType::Int)]);
        assert_eq!(v2.join(&v2).names(), vec!["v2", "v2_r"]);
        assert_eq!(Schema::unsuffixed("v2_r"), Some("v2"));
        assert_eq!(Schema::unsuffixed("x_r_r2"), Some("x_r"));
    }

    #[test]
    fn check_row_catches_violations() {
        let s = Schema::from_fields(vec![
            Field {
                nullable: false,
                ..Field::new("id", DataType::Int)
            },
            Field::new("name", DataType::Str),
        ]);
        assert!(s
            .check_row(&Row::from(vec![Value::Int(1), Value::from("a")]))
            .is_ok());
        assert!(s
            .check_row(&Row::from(vec![Value::Null, Value::from("a")]))
            .is_err());
        assert!(s
            .check_row(&Row::from(vec![Value::Int(1), Value::Int(2)]))
            .is_err());
        assert!(s.check_row(&Row::from(vec![Value::Int(1)])).is_err());
    }
}
