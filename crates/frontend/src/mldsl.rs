//! The ML pipeline DSL: the frontend face of Figs. 2, 3 and 7.
//!
//! Grammar (one statement per subprogram):
//!
//! ```text
//! TRAIN MLP HIDDEN h1[,h2...] EPOCHS e BATCH b LR r LABEL col
//! KMEANS K k [ITERS n]
//! PREDICT
//! ```
//!
//! All three are transforms: they consume the dataset produced by the
//! subprogram(s) they are wired to in the heterogeneous program.

use pspp_common::{Error, Result};
use pspp_ir::{NodeId, Operator, Program};

use crate::lexer::{lex, Cursor};

/// Lowers an ML DSL statement into `program`, consuming `inputs`.
///
/// `TRAIN`/`KMEANS` take one input; `PREDICT` takes two (data, model).
///
/// # Errors
///
/// Returns [`Error::Parse`] on syntax errors, [`Error::Semantic`] on
/// wrong input arity.
pub fn lower_into(
    statement: &str,
    inputs: &[NodeId],
    program: &mut Program,
    subprogram: &str,
) -> Result<NodeId> {
    let mut c = Cursor::new(lex(statement)?);
    if c.eat_kw("train") {
        c.expect_kw("mlp")?;
        c.expect_kw("hidden")?;
        let mut hidden = vec![expect_count(&mut c, "HIDDEN", 1)?];
        while c.eat_sym(",") {
            hidden.push(expect_count(&mut c, "HIDDEN", 1)?);
        }
        c.expect_kw("epochs")?;
        let epochs = expect_count(&mut c, "EPOCHS", 0)?;
        c.expect_kw("batch")?;
        let batch_size = expect_count(&mut c, "BATCH", 1)?;
        c.expect_kw("lr")?;
        let learning_rate = c.expect_number()?;
        c.expect_kw("label")?;
        let label_column = c.expect_ident()?;
        c.expect_end()?;
        require_arity(inputs, 1, "TRAIN")?;
        return Ok(program.add_node(
            Operator::TrainMlp {
                label_column,
                hidden,
                epochs,
                batch_size,
                learning_rate,
            },
            inputs.to_vec(),
            subprogram,
        ));
    }
    if c.eat_kw("kmeans") {
        c.expect_kw("k")?;
        let k = expect_count(&mut c, "K", 1)?;
        let max_iters = if c.eat_kw("iters") {
            expect_count(&mut c, "ITERS", 0)?
        } else {
            50
        };
        c.expect_end()?;
        require_arity(inputs, 1, "KMEANS")?;
        return Ok(program.add_node(
            Operator::KMeansCluster { k, max_iters },
            inputs.to_vec(),
            subprogram,
        ));
    }
    if c.eat_kw("predict") {
        c.expect_end()?;
        require_arity(inputs, 2, "PREDICT")?;
        return Ok(program.add_node(Operator::Predict, inputs.to_vec(), subprogram));
    }
    Err(Error::Parse(format!("unknown ML statement: {statement:?}")))
}

/// The integer after `clause`, as a count of at least `min`: the lexer
/// reads `-1` as one token, which an `as usize` cast would turn into
/// `usize::MAX` layers, epochs or clusters.
fn expect_count(c: &mut Cursor, clause: &str, min: usize) -> Result<usize> {
    let value = c.expect_int()?;
    usize::try_from(value)
        .ok()
        .filter(|&count| count >= min)
        .ok_or_else(|| Error::Parse(format!("{clause} must be at least {min}, got {value}")))
}

fn require_arity(inputs: &[NodeId], want: usize, what: &str) -> Result<()> {
    if inputs.len() == want {
        Ok(())
    } else {
        Err(Error::Semantic(format!(
            "{what} expects {want} input dataset(s), got {}",
            inputs.len()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspp_common::TableRef;

    fn source(p: &mut Program) -> NodeId {
        p.add_source(Operator::scan(TableRef::new("db", "t")), "sql")
    }

    #[test]
    fn train_statement() {
        let mut p = Program::new();
        let s = source(&mut p);
        let n = lower_into(
            "TRAIN MLP HIDDEN 16,8 EPOCHS 20 BATCH 32 LR 0.5 LABEL long_stay",
            &[s],
            &mut p,
            "ml",
        )
        .unwrap();
        match &p.node(n).op {
            Operator::TrainMlp {
                hidden,
                epochs,
                batch_size,
                learning_rate,
                label_column,
            } => {
                assert_eq!(hidden, &[16, 8]);
                assert_eq!(*epochs, 20);
                assert_eq!(*batch_size, 32);
                assert!((learning_rate - 0.5).abs() < 1e-12);
                assert_eq!(label_column, "long_stay");
            }
            _ => panic!("wrong op"),
        }
    }

    #[test]
    fn kmeans_defaults_iters() {
        let mut p = Program::new();
        let s = source(&mut p);
        let n = lower_into("KMEANS K 3", &[s], &mut p, "ml").unwrap();
        match &p.node(n).op {
            Operator::KMeansCluster { k, max_iters } => {
                assert_eq!(*k, 3);
                assert_eq!(*max_iters, 50);
            }
            _ => panic!("wrong op"),
        }
    }

    #[test]
    fn predict_needs_two_inputs() {
        let mut p = Program::new();
        let s = source(&mut p);
        assert!(lower_into("PREDICT", &[s], &mut p, "ml").is_err());
        let m = source(&mut p);
        assert!(lower_into("PREDICT", &[s, m], &mut p, "ml").is_ok());
    }

    #[test]
    fn negative_and_zero_counts_rejected_by_clause() {
        for (statement, clause) in [
            (
                "TRAIN MLP HIDDEN -1 EPOCHS 5 BATCH 32 LR 0.3 LABEL y",
                "HIDDEN",
            ),
            (
                "TRAIN MLP HIDDEN 0 EPOCHS 5 BATCH 32 LR 0.3 LABEL y",
                "HIDDEN",
            ),
            (
                "TRAIN MLP HIDDEN 8,-4 EPOCHS 5 BATCH 32 LR 0.3 LABEL y",
                "HIDDEN",
            ),
            (
                "TRAIN MLP HIDDEN 8 EPOCHS -1 BATCH 32 LR 0.3 LABEL y",
                "EPOCHS",
            ),
            (
                "TRAIN MLP HIDDEN 8 EPOCHS 5 BATCH -1 LR 0.3 LABEL y",
                "BATCH",
            ),
            (
                "TRAIN MLP HIDDEN 8 EPOCHS 5 BATCH 0 LR 0.3 LABEL y",
                "BATCH",
            ),
            ("KMEANS K -1", "K"),
            ("KMEANS K 0", "K"),
            ("KMEANS K 3 ITERS -1", "ITERS"),
        ] {
            let mut p = Program::new();
            let s = source(&mut p);
            match lower_into(statement, &[s], &mut p, "ml") {
                Err(Error::Parse(message)) => {
                    assert!(message.starts_with(clause), "{statement}: {message}");
                }
                other => panic!("{statement}: expected a parse error, got {other:?}"),
            }
        }
        // Zero epochs and zero iterations are degenerate, not invalid.
        let mut p = Program::new();
        let s = source(&mut p);
        assert!(lower_into(
            "TRAIN MLP HIDDEN 8 EPOCHS 0 BATCH 32 LR 0.3 LABEL y",
            &[s],
            &mut p,
            "ml"
        )
        .is_ok());
        assert!(lower_into("KMEANS K 3 ITERS 0", &[s], &mut p, "ml").is_ok());
    }

    #[test]
    fn unknown_statement_rejected() {
        let mut p = Program::new();
        let s = source(&mut p);
        assert!(lower_into("FIT SVM", &[s], &mut p, "ml").is_err());
    }
}
