//! The ML engine: training, scoring and clustering (Figs. 2, 3, 7).
//!
//! Kernels run on the fleet's best matrix engine when offload is
//! enabled (via [`ExecCtx::training_profile`]), posting their cycles to
//! the task's ledger under the `mlengine` component.

use pspp_accel::kernels::Matrix;
use pspp_common::{DataModel, DataType, EngineId, Error, Result, Row, Schema, Value};
use pspp_mlengine::{Dataset as MlDataset, KMeans, KMeansConfig, Mlp, TrainConfig};

use crate::dataset::{Dataset, Payload};
use crate::physical::ExecCtx;

/// Trains an MLP with `hidden` layers on the numeric columns of `d`,
/// `label_column` its target; the output is the model.
pub(crate) fn train_mlp(
    d: &Dataset,
    label_column: &str,
    hidden: &[usize],
    epochs: usize,
    batch_size: usize,
    learning_rate: f64,
    ctx: &ExecCtx<'_>,
) -> Result<Dataset> {
    let (data, _) = to_ml_dataset(d, Some(label_column))?;
    let mut sizes = vec![data.dim()];
    sizes.extend(hidden.iter().copied());
    sizes.push(1);
    let mut mlp = Mlp::new(&sizes, 42)?;
    mlp.train(
        ctx.training_profile(),
        &data,
        &TrainConfig {
            epochs,
            batch_size,
            learning_rate,
        },
        Some(ctx.ledger()),
    )?;
    Ok(Dataset {
        payload: Payload::Model(Box::new(mlp)),
        model: DataModel::Tensor,
        location: EngineId::new("middleware"),
    })
}

/// Scores the rows of `d` with the model `model` holds, appending a
/// `prediction` column.
pub(crate) fn predict(d: &Dataset, model: &Dataset, ctx: &ExecCtx<'_>) -> Result<Dataset> {
    let mlp = model.try_model()?;
    // Every numeric column is a feature, in schema order, as `TrainMlp`
    // took them: `d` must not hold the label.
    let (data, schema) = to_ml_dataset(d, None)?;
    let probs = mlp.predict_proba(ctx.training_profile(), data.features(), Some(ctx.ledger()))?;
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

/// Clusters the numeric columns of `d` into `k` groups, appending a
/// `cluster` column.
pub(crate) fn kmeans(
    d: &Dataset,
    k: usize,
    max_iters: usize,
    ctx: &ExecCtx<'_>,
) -> Result<Dataset> {
    let (data, schema) = to_ml_dataset(d, None)?;
    let result = KMeans::run(
        ctx.training_profile(),
        data.features(),
        &KMeansConfig {
            k,
            max_iters,
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

/// Converts a tabular dataset into an ML dataset; numeric columns become
/// features (the label column, when given, becomes the target).
fn to_ml_dataset(d: &Dataset, label: Option<&str>) -> Result<(MlDataset, Schema)> {
    let schema = d.schema()?;
    let rows = d.try_rows()?;
    let label_idx = match label {
        Some(l) => Some(schema.require(l)?),
        None => None,
    };
    let feature_cols: Vec<usize> = schema
        .fields()
        .iter()
        .enumerate()
        .filter(|(i, f)| Some(*i) != label_idx && f.data_type.is_numeric())
        .map(|(i, _)| i)
        .collect();
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
