//! Adapter for the ML engine: training, scoring and clustering.

use pspp_accel::kernels::Matrix;
use pspp_common::{DataModel, DataType, EngineId, Error, Result, Row, Schema, Value};
use pspp_ir::Operator;
use pspp_mlengine::{Dataset as MlDataset, KMeans, KMeansConfig, Mlp, TrainConfig};

use crate::dataset::{Dataset, Payload};
use crate::physical::adapters::relational::unsupported;
use crate::physical::{EngineAdapter, ExecCtx};
use crate::registry::EngineRegistry;

/// Executes the ML patterns (Figs. 2, 3, 7): MLP training, model
/// scoring, and k-means clustering. Kernels run on the fleet's best
/// matrix engine when offload is enabled (via
/// [`ExecCtx::training_profile`]), posting their cycles to the node's
/// ledger under the `mlengine` component.
#[derive(Debug, Clone, Copy, Default)]
pub struct MlAdapter;

impl EngineAdapter for MlAdapter {
    fn name(&self) -> &'static str {
        "ml"
    }

    fn supports(&self, op: &Operator) -> bool {
        matches!(
            op,
            Operator::TrainMlp { .. } | Operator::Predict | Operator::KMeansCluster { .. }
        )
    }

    fn run(
        &self,
        op: &Operator,
        inputs: &[Dataset],
        _target: Option<&EngineId>,
        _registry: &EngineRegistry,
        ctx: &ExecCtx<'_>,
    ) -> Result<Dataset> {
        match op {
            Operator::TrainMlp {
                label_column,
                hidden,
                epochs,
                batch_size,
                learning_rate,
            } => {
                let d = &inputs[0];
                let (data, _) = to_ml_dataset(d, Some(label_column))?;
                let mut sizes = vec![data.dim()];
                sizes.extend(hidden.iter().copied());
                sizes.push(1);
                let mut mlp = Mlp::new(&sizes, 42)?;
                mlp.train(
                    ctx.training_profile(),
                    &data,
                    &TrainConfig {
                        epochs: *epochs,
                        batch_size: *batch_size,
                        learning_rate: *learning_rate,
                    },
                    Some(ctx.ledger()),
                )?;
                Ok(Dataset {
                    payload: Payload::Model(Box::new(mlp)),
                    model: DataModel::Tensor,
                    location: EngineId::new("middleware"),
                })
            }
            Operator::Predict => {
                let d = &inputs[0];
                let mlp = inputs[1].try_model()?;
                // Score with the first `input_dim` numeric columns — the
                // convention `TrainMlp` used (features in schema order).
                let (data, schema) = to_ml_dataset_with_dim(d, None, Some(mlp.input_dim()))?;
                let probs =
                    mlp.predict_proba(ctx.training_profile(), data.features(), Some(ctx.ledger()))?;
                let mut fields: Vec<pspp_common::Field> = schema.fields().to_vec();
                fields.push(pspp_common::Field::new("prediction", DataType::Float));
                let out_schema = Schema::from_fields(fields);
                let rows: Vec<Row> = d
                    .try_rows()?
                    .iter()
                    .zip(&probs)
                    .map(|(r, p)| {
                        let mut vals = r.values().to_vec();
                        vals.push(Value::Float(*p));
                        Row::from(vals)
                    })
                    .collect();
                Ok(Dataset::rows(out_schema, rows, d.model, d.location.clone()))
            }
            Operator::KMeansCluster { k, max_iters } => {
                let d = &inputs[0];
                let (data, schema) = to_ml_dataset(d, None)?;
                let result = KMeans::run(
                    ctx.training_profile(),
                    data.features(),
                    &KMeansConfig {
                        k: *k,
                        max_iters: *max_iters,
                        ..KMeansConfig::default()
                    },
                    Some(ctx.ledger()),
                )?;
                let mut fields: Vec<pspp_common::Field> = schema.fields().to_vec();
                fields.push(pspp_common::Field::new("cluster", DataType::Int));
                let out_schema = Schema::from_fields(fields);
                let rows: Vec<Row> = d
                    .try_rows()?
                    .iter()
                    .zip(&result.assignments)
                    .map(|(r, &c)| {
                        let mut vals = r.values().to_vec();
                        vals.push(Value::Int(c as i64));
                        Row::from(vals)
                    })
                    .collect();
                Ok(Dataset::rows(out_schema, rows, d.model, d.location.clone()))
            }
            other => unsupported(self, other),
        }
    }
}

/// Converts a tabular dataset into an ML dataset; numeric columns become
/// features (the label column, when given, becomes the target).
fn to_ml_dataset(d: &Dataset, label: Option<&str>) -> Result<(MlDataset, Schema)> {
    to_ml_dataset_with_dim(d, label, None)
}

/// As [`to_ml_dataset`], optionally truncating to the first `dim`
/// numeric columns (for scoring with an already-trained model).
fn to_ml_dataset_with_dim(
    d: &Dataset,
    label: Option<&str>,
    dim: Option<usize>,
) -> Result<(MlDataset, Schema)> {
    let schema = d.schema()?;
    let rows = d.try_rows()?;
    let label_idx = match label {
        Some(l) => Some(schema.require(l)?),
        None => None,
    };
    let mut feature_cols: Vec<usize> = schema
        .fields()
        .iter()
        .enumerate()
        .filter(|(i, f)| Some(*i) != label_idx && f.data_type.is_numeric())
        .map(|(i, _)| i)
        .collect();
    if let Some(dim) = dim {
        if feature_cols.len() < dim {
            return Err(Error::Execution(format!(
                "model expects {dim} features, dataset has {}",
                feature_cols.len()
            )));
        }
        feature_cols.truncate(dim);
    }
    if feature_cols.is_empty() {
        return Err(Error::Execution("no numeric feature columns".into()));
    }
    let width = feature_cols.len();
    let mut features = Vec::with_capacity(rows.len() * width);
    let mut labels = Vec::with_capacity(rows.len());
    for r in rows.iter() {
        features.extend(feature_cols.iter().map(|&c| r[c].as_f64().unwrap_or(0.0)));
        labels.push(label_idx.map_or(0.0, |i| r[i].as_f64().unwrap_or(0.0)));
    }
    let features = Matrix::from_vec(rows.len(), width, features)?;
    Ok((MlDataset::new(features, labels)?, schema.clone()))
}
