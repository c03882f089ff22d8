//! The ML engine: training, scoring and clustering (Figs. 2, 3, 7).
//!
//! Kernels run on the fleet's best matrix engine when offload is
//! enabled (via [`ExecCtx::training_profile`]), posting their cycles to
//! the run's ledger under the `mlengine` component; the executor bills
//! an ML task the busy time of what it posted.

use pspp_accel::kernels::Matrix;
use pspp_common::{DataModel, DataType, EngineId, Error, Field, Result, Schema, Value};
use pspp_mlengine::{Dataset as MlDataset, KMeans, KMeansConfig, Mlp, TrainConfig};
use pspp_relstore::ops;

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
    let probs = probs.into_iter().map(Value::Float).collect();
    appended(d, schema, ("prediction", DataType::Float), probs)
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
    let clusters = (result.assignments.iter())
        .map(|&c| Value::Int(c as i64))
        .collect();
    appended(d, schema, ("cluster", DataType::Int), clusters)
}

/// `d`'s rows, each followed by its value of `values`, under `schema`
/// with the column `(name, data_type)` appended: built a column at a
/// time out of `d`'s selection or rows into one slab, and sized as they
/// are built.
fn appended(
    d: &Dataset,
    schema: Schema,
    (name, data_type): (&str, DataType),
    values: Vec<Value>,
) -> Result<Dataset> {
    let mut fields = schema.fields().to_vec();
    fields.push(Field::new(name, data_type));
    let arity = schema.arity();
    let (rows, byte_size) = ops::append_column(d.row_buf()?.selected()?, arity, values)?;
    let schema = Schema::from_fields(fields);
    Ok(Dataset::sized_rows(
        schema,
        rows,
        byte_size,
        d.model,
        d.location.clone(),
    ))
}

/// Converts a tabular dataset into an ML dataset; numeric columns become
/// features (the label column, when given, becomes the target). Each
/// column is read where it lies — out of a selection's typed image, or
/// through the rows ([`pspp_relstore::Selected::numbers`]) — a column at
/// a time: an `Int` or `Timestamp` as `f64`, NULL as `0.0`.
///
/// # Errors
///
/// Returns [`Error::Invalid`] for a label column that is not numeric,
/// and [`Error::Execution`] when no column is a feature.
fn to_ml_dataset(d: &Dataset, label: Option<&str>) -> Result<(MlDataset, Schema)> {
    let schema = d.schema()?;
    let rows = d.row_buf()?.selected()?;
    let label_idx = match label {
        Some(l) => {
            let at = schema.require(l)?;
            let data_type = schema.fields()[at].data_type;
            if !data_type.is_numeric() {
                return Err(Error::Invalid(format!(
                    "label column {l} is {data_type}, not a number"
                )));
            }
            Some(at)
        }
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
    let (n, width) = (rows.len(), feature_cols.len());
    let mut features = vec![0.0; n * width];
    for (j, &c) in feature_cols.iter().enumerate() {
        rows.numbers(c, |i, x| features[i * width + j] = x);
    }
    let mut labels = vec![0.0; n];
    if let Some(at) = label_idx {
        rows.numbers(at, |i, y| labels[i] = y);
    }
    let features = Matrix::from_vec(n, width, features)?;
    Ok((MlDataset::new(features, labels)?, schema.clone()))
}
