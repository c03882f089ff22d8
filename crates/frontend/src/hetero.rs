//! Heterogeneous programs: multiple subprograms in different languages
//! stitched into one IR graph (Fig. 5).
//!
//! Each subprogram is a statement in one of the mini-languages; wiring a
//! subprogram's `inputs` to other subprograms' names creates the
//! cross-language (and usually cross-engine) data-flow edges that the
//! data migrator must later service.

use std::collections::HashMap;

use pspp_common::{Error, Result};
use pspp_ir::{NodeId, Operator, Program, TextSearchMode};

use crate::catalog::Catalog;
use crate::lexer::{lex, Cursor};
use crate::{cypher, mldsl, sql, tsdsl};

/// The language of one subprogram.
#[derive(Debug, Clone, PartialEq)]
pub enum Language {
    /// Mini-SQL (see [`crate::sql`]).
    Sql,
    /// Cypher-like `MATCH` against the named graph dataset.
    Cypher {
        /// Catalog name of the graph.
        graph: String,
    },
    /// ML pipeline DSL (see [`crate::mldsl`]).
    MlDsl,
    /// Timeseries DSL (see [`crate::tsdsl`]).
    TsDsl,
    /// Text search: `SEARCH term... MODE (all|any|top k)` against the
    /// named text dataset.
    TextSearch {
        /// Catalog name of the document collection.
        dataset: String,
    },
    /// Cross-dataset connector: `JOIN left_col = right_col` (hash join)
    /// or `MERGEJOIN left_col = right_col` (sort-merge, the §III
    /// example). Takes exactly two inputs.
    Connector,
}

/// One subprogram: a named statement plus its dataset inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct SubprogramSpec {
    /// Unique name; other subprograms reference it in `inputs`.
    pub name: String,
    /// The language the code is written in.
    pub language: Language,
    /// The statement text.
    pub code: String,
    /// Names of subprograms whose outputs feed this one.
    pub inputs: Vec<String>,
}

/// A builder for heterogeneous programs.
///
/// # Examples
///
/// ```
/// use pspp_frontend::{Catalog, HeterogeneousProgram, Language};
/// use pspp_common::{Schema, DataType, TableRef};
///
/// # fn main() -> pspp_common::Result<()> {
/// let mut catalog = Catalog::new();
/// catalog.register(
///     TableRef::new("db1", "admissions"),
///     Schema::new(vec![("pid", DataType::Int), ("los", DataType::Float)]),
/// );
/// let program = HeterogeneousProgram::builder()
///     .subprogram("features", Language::Sql, "SELECT pid, los FROM admissions", &[])
///     .subprogram("model", Language::MlDsl,
///                 "TRAIN MLP HIDDEN 8 EPOCHS 5 BATCH 16 LR 0.3 LABEL los",
///                 &["features"])
///     .build(&catalog)?;
/// assert_eq!(program.subprograms(), vec!["features", "model"]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct HeterogeneousProgram {
    subprograms: Vec<SubprogramSpec>,
}

impl HeterogeneousProgram {
    /// Starts an empty builder.
    pub fn builder() -> Self {
        HeterogeneousProgram::default()
    }

    /// Adds a subprogram (builder style).
    pub fn subprogram(
        mut self,
        name: impl Into<String>,
        language: Language,
        code: impl Into<String>,
        inputs: &[&str],
    ) -> Self {
        self.subprograms.push(SubprogramSpec {
            name: name.into(),
            language,
            code: code.into(),
            inputs: inputs.iter().map(|s| (*s).to_owned()).collect(),
        });
        self
    }

    /// The declared subprograms.
    pub fn specs(&self) -> &[SubprogramSpec] {
        &self.subprograms
    }

    /// Compiles all subprograms into one IR [`Program`], wiring inputs,
    /// and marking the final subprogram's node as the program output.
    ///
    /// # Errors
    ///
    /// Returns parse/semantic errors from the constituent frontends, or
    /// [`Error::Semantic`] for unknown input references and duplicate
    /// names.
    pub fn build(&self, catalog: &Catalog) -> Result<Program> {
        let Some(last) = self.subprograms.last() else {
            return Err(Error::Semantic("no subprograms".into()));
        };
        let mut program = Program::new();
        let mut outputs: HashMap<&str, NodeId> = HashMap::new();
        for spec in &self.subprograms {
            if outputs.contains_key(spec.name.as_str()) {
                return Err(Error::Semantic(format!(
                    "duplicate subprogram name {}",
                    spec.name
                )));
            }
            let inputs: Vec<NodeId> = spec
                .inputs
                .iter()
                .map(|n| {
                    outputs.get(n.as_str()).copied().ok_or_else(|| {
                        Error::Semantic(format!(
                            "subprogram {} references unknown input {n}",
                            spec.name
                        ))
                    })
                })
                .collect::<Result<_>>()?;
            let out = match &spec.language {
                Language::Sql => {
                    Self::require_no_inputs(spec)?;
                    sql::lower_into(&spec.code, catalog, &mut program, &spec.name)?
                }
                Language::Cypher { graph } => {
                    Self::require_no_inputs(spec)?;
                    cypher::lower_into(&spec.code, graph, catalog, &mut program, &spec.name)?
                }
                Language::TsDsl => {
                    Self::require_no_inputs(spec)?;
                    tsdsl::lower_into(&spec.code, catalog, &mut program, &spec.name)?
                }
                Language::MlDsl => {
                    mldsl::lower_into(&spec.code, &inputs, &mut program, &spec.name)?
                }
                Language::TextSearch { dataset } => {
                    Self::require_no_inputs(spec)?;
                    lower_text_search(&spec.code, dataset, catalog, &mut program, &spec.name)?
                }
                Language::Connector => {
                    lower_connector(&spec.code, &inputs, &mut program, &spec.name)?
                }
            };
            outputs.insert(&spec.name, out);
        }
        program.mark_output(outputs[last.name.as_str()]);
        program.validate()?;
        Ok(program)
    }

    fn require_no_inputs(spec: &SubprogramSpec) -> Result<()> {
        if spec.inputs.is_empty() {
            Ok(())
        } else {
            Err(Error::Semantic(format!(
                "subprogram {} is a source and takes no inputs",
                spec.name
            )))
        }
    }
}

/// `SEARCH term... MODE (all|any|top k)`
fn lower_text_search(
    code: &str,
    dataset: &str,
    catalog: &Catalog,
    program: &mut Program,
    subprogram: &str,
) -> Result<NodeId> {
    let (table, _) = catalog.resolve(dataset)?.clone();
    let mut c = Cursor::new(lex(code)?);
    c.expect_kw("search")?;
    let mut terms = Vec::new();
    while let Some(t) = c.peek() {
        if t.is_kw("mode") {
            break;
        }
        terms.push(c.expect_ident()?);
    }
    if terms.is_empty() {
        return Err(Error::Parse("SEARCH needs at least one term".into()));
    }
    c.expect_kw("mode")?;
    let mode = if c.eat_kw("all") {
        TextSearchMode::All
    } else if c.eat_kw("any") {
        TextSearchMode::Any
    } else if c.eat_kw("top") {
        TextSearchMode::Ranked(c.expect_int()? as usize)
    } else {
        return Err(Error::Parse("MODE must be all, any or top k".into()));
    };
    c.expect_end()?;
    Ok(program.add_source(Operator::TextSearch { table, terms, mode }, subprogram))
}

/// `JOIN l = r` | `MERGEJOIN l = r`
fn lower_connector(
    code: &str,
    inputs: &[NodeId],
    program: &mut Program,
    subprogram: &str,
) -> Result<NodeId> {
    if inputs.len() != 2 {
        return Err(Error::Semantic(format!(
            "connector needs exactly 2 inputs, got {}",
            inputs.len()
        )));
    }
    let mut c = Cursor::new(lex(code)?);
    let merge = if c.eat_kw("mergejoin") {
        true
    } else {
        c.expect_kw("join")?;
        false
    };
    let left_on = c.expect_ident()?;
    c.expect_sym("=")?;
    let right_on = c.expect_ident()?;
    c.expect_end()?;
    let op = if merge {
        Operator::SortMergeJoin { left_on, right_on }
    } else {
        Operator::HashJoin { left_on, right_on }
    };
    Ok(program.add_node(op, inputs.to_vec(), subprogram))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspp_common::{DataType, Schema, TableRef};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            TableRef::new("db1", "admissions"),
            Schema::new(vec![
                ("pid", DataType::Int),
                ("age", DataType::Int),
                ("los", DataType::Float),
            ]),
        );
        c.register(TableRef::new("neo", "clinical"), Schema::empty());
        c.register(TableRef::new("text", "notes"), Schema::empty());
        c.register(TableRef::new("ts", "vitals"), Schema::empty());
        c
    }

    /// The Fig. 2 program in miniature: relational + graph + text + ts
    /// feeding a connector chain into an MLP.
    fn clinical() -> HeterogeneousProgram {
        HeterogeneousProgram::builder()
            .subprogram(
                "p",
                Language::Sql,
                "SELECT pid, age, los FROM admissions WHERE age > 18",
                &[],
            )
            .subprogram(
                "n",
                Language::Cypher {
                    graph: "clinical".into(),
                },
                "MATCH (p:Patient)-[:STAY]->(w:Ward) RETURN PATHS",
                &[],
            )
            .subprogram(
                "s",
                Language::TsDsl,
                "WINDOW vitals FROM 0 TO 1000 WIDTH 100 AGG mean",
                &[],
            )
            .subprogram("pn", Language::Connector, "JOIN pid = node_0", &["p", "n"])
            .subprogram(
                "pns",
                Language::Connector,
                "JOIN pid = window_start",
                &["pn", "s"],
            )
            .subprogram(
                "model",
                Language::MlDsl,
                "TRAIN MLP HIDDEN 8 EPOCHS 5 BATCH 16 LR 0.3 LABEL los",
                &["pns"],
            )
    }

    #[test]
    fn clinical_program_compiles_with_cross_edges() {
        let p = clinical().build(&catalog()).unwrap();
        assert_eq!(p.subprograms().len(), 6);
        // p, n, s each contribute at least one cross-subprogram edge into
        // the connectors and the model.
        assert!(p.cross_subprogram_edges().len() >= 4);
        assert!(p.validate().is_ok());
        let dot = p.to_dot();
        assert!(dot.contains("train_mlp"));
    }

    #[test]
    fn unknown_input_rejected() {
        let err = HeterogeneousProgram::builder()
            .subprogram("m", Language::MlDsl, "KMEANS K 2", &["ghost"])
            .build(&catalog());
        assert!(matches!(err, Err(Error::Semantic(_))));
    }

    #[test]
    fn duplicate_names_rejected() {
        let err = HeterogeneousProgram::builder()
            .subprogram("a", Language::Sql, "SELECT * FROM admissions", &[])
            .subprogram("a", Language::Sql, "SELECT * FROM admissions", &[])
            .build(&catalog());
        assert!(matches!(err, Err(Error::Semantic(_))));
    }

    #[test]
    fn source_with_inputs_rejected() {
        let err = HeterogeneousProgram::builder()
            .subprogram("a", Language::Sql, "SELECT * FROM admissions", &[])
            .subprogram("b", Language::Sql, "SELECT * FROM admissions", &["a"])
            .build(&catalog());
        assert!(matches!(err, Err(Error::Semantic(_))));
    }

    #[test]
    fn text_search_modes() {
        for (code, want) in [
            ("SEARCH sepsis icu MODE all", TextSearchMode::All),
            ("SEARCH sepsis MODE any", TextSearchMode::Any),
            ("SEARCH sepsis MODE top 5", TextSearchMode::Ranked(5)),
        ] {
            let p = HeterogeneousProgram::builder()
                .subprogram(
                    "q",
                    Language::TextSearch {
                        dataset: "notes".into(),
                    },
                    code,
                    &[],
                )
                .build(&catalog())
                .unwrap();
            match &p.nodes()[0].op {
                Operator::TextSearch { mode, terms, .. } => {
                    assert_eq!(*mode, want);
                    assert!(!terms.is_empty());
                }
                _ => panic!("wrong op"),
            }
        }
    }

    #[test]
    fn connector_arity_enforced() {
        let err = HeterogeneousProgram::builder()
            .subprogram("a", Language::Sql, "SELECT * FROM admissions", &[])
            .subprogram("j", Language::Connector, "JOIN x = y", &["a"])
            .build(&catalog());
        assert!(err.is_err());
    }

    #[test]
    fn mergejoin_connector() {
        let p = HeterogeneousProgram::builder()
            .subprogram("a", Language::Sql, "SELECT * FROM admissions", &[])
            .subprogram("b", Language::Sql, "SELECT * FROM admissions", &[])
            .subprogram("j", Language::Connector, "MERGEJOIN pid = pid", &["a", "b"])
            .build(&catalog())
            .unwrap();
        assert!(p.nodes().iter().any(|n| n.op.name() == "sort_merge_join"));
    }
}
