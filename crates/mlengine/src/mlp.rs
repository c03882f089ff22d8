//! A multi-layer perceptron trained by mini-batch SGD.
//!
//! Training and inference lower to GEMM/GEMV exactly as §III-A.1
//! describes, and every matrix multiply is the accelerator crate's
//! [`Gemm`] kernel charged by shape, so the same training loop can be
//! costed on the CPU model or offloaded to the TPU model — the paper's
//! Fig. 3 scenario. One `Workspace` per run holds every intermediate;
//! the loop itself allocates nothing. `Mlp::bill_step` is the one place
//! a step's GEMM shapes are billed: the arithmetic charges nothing, so
//! what the ledger sees does not depend on what the host computed.
//!
//! # Epochs that cannot change the model
//!
//! A step is a deterministic function of the parameters, the batch and
//! the learning rate: every workspace buffer it reads, it first wrote in
//! that step. An epoch runs the same batches in the same order, so it is
//! a deterministic function of the parameters it starts from. When one
//! epoch ends on the bits it started from, every later epoch starts
//! there too and repeats it exactly, loss included. `Mlp::train` keeps
//! each epoch's starting bits in the workspace; once an epoch returns
//! them unchanged, the remaining epochs are billed batch by batch (the
//! ragged last one included) and given that epoch's loss, without being
//! computed. The test is on `to_bits()`, so `NaN` payloads and `±0.0`
//! compare exactly; there is no tolerance. A saturated training (every
//! output delta `0.0` once its first steps have moved the model)
//! computes one epoch that changes nothing and bills the rest.
//!
//! # Which examples backward visits
//!
//! The forward pass, the loss and the output delta cover the whole
//! batch. Backward then visits only the *live* examples: those whose
//! output delta is nonzero, or whose input features or hidden
//! activations hold a non-finite value. When any delta is exactly
//! `0.0`, `Mlp::step` moves the live examples to the front of the
//! workspace — their deltas, hidden activations and pre-activations in
//! place, their input rows into a buffer sized with the workspace — in
//! their original order, and the one backward loop runs over that
//! prefix. A batch with no zero delta pays one scan of its deltas.
//! `Mlp::bill_step` still bills the whole batch's shape, so the ledger,
//! the simulated clock and the energy do not see the shortcut.
//!
//! The result is the full batch's, bit for bit, under the kernels' order
//! contract:
//! - a zero output delta makes every delta row below it `+0.0`: the
//!   GEMM skips its zero left entries, so `δ · Wᵀ` leaves the row at
//!   `+0.0` whatever `W` holds, and the ReLU gate writes `0.0`;
//! - every `dW` and `db` accumulator starts at `+0.0`, and a sum of
//!   nonzero terms rounds to `+0.0` on cancellation, so none is ever
//!   `-0.0` — adding `finite × ±0.0` leaves it unchanged;
//! - the live examples keep their order, so each accumulator sees the
//!   same additions in the same order;
//! - the one case that differs, `inf × 0 = NaN`, is why a non-finite
//!   feature or activation keeps its example live: that `NaN` must still
//!   reach `dW`. The check reads one pre-activation per layer, because a
//!   non-finite entry in a layer's input row leaves no pre-activation of
//!   that row finite.

use pspp_accel::kernels::{Gemm, Matrix};
use pspp_accel::{CostLedger, DeviceProfile};
use pspp_common::{Error, Result, SplitMix64};

use crate::dataset::Dataset;

/// SGD hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// SGD step size.
    pub learning_rate: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 10,
            batch_size: 32,
            learning_rate: 0.1,
        }
    }
}

/// A feed-forward network with ReLU hidden layers and a sigmoid output,
/// for binary classification (Fig. 2's "long stay vs short stay").
#[derive(Debug, Clone)]
pub struct Mlp {
    /// Per-layer weight matrices (`in_dim × out_dim`).
    weights: Vec<Matrix>,
    /// Per-layer bias vectors.
    biases: Vec<Vec<f64>>,
}

impl Mlp {
    /// Builds a network with the given layer sizes
    /// (`[input, hidden..., output]`), He-initialized from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invalid`] for fewer than two sizes or a non-1
    /// output layer.
    pub fn new(sizes: &[usize], seed: u64) -> Result<Self> {
        if sizes.len() < 2 {
            return Err(Error::Invalid(
                "need at least input and output sizes".into(),
            ));
        }
        if sizes.last() != Some(&1) {
            return Err(Error::Invalid(
                "binary classifier needs output size 1".into(),
            ));
        }
        let mut rng = SplitMix64::new(seed);
        let mut weights = Vec::new();
        let mut biases = Vec::new();
        for w in sizes.windows(2) {
            let (fan_in, fan_out) = (w[0], w[1]);
            let scale = (2.0 / fan_in as f64).sqrt();
            let data: Vec<f64> = (0..fan_in * fan_out)
                .map(|_| rng.next_gaussian() * scale)
                .collect();
            weights.push(Matrix::from_vec(fan_in, fan_out, data)?);
            biases.push(vec![0.0; fan_out]);
        }
        Ok(Mlp { weights, biases })
    }

    /// Number of layers (excluding the input).
    pub fn depth(&self) -> usize {
        self.weights.len()
    }

    /// Expected feature dimensionality.
    pub fn input_dim(&self) -> usize {
        self.weights.first().map_or(0, Matrix::rows)
    }

    /// Each layer's weight matrix and bias vector, input side first.
    pub fn layers(&self) -> impl Iterator<Item = (&Matrix, &[f64])> {
        self.weights
            .iter()
            .zip(self.biases.iter().map(Vec::as_slice))
    }

    /// Total trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.weights
            .iter()
            .map(|w| w.rows() * w.cols())
            .sum::<usize>()
            + self.biases.iter().map(Vec::len).sum::<usize>()
    }

    /// A profile with launch overhead stripped: kernels inside one
    /// training/inference run are enqueued back-to-back (command-queue
    /// batching), so the per-run launch cost is charged once by the
    /// caller-facing entry points rather than per GEMM.
    fn queued(device: &DeviceProfile) -> DeviceProfile {
        let mut queued = device.clone();
        queued.launch_overhead_cycles = 0;
        queued
    }

    fn charge_launch(device: &DeviceProfile, ledger: Option<&CostLedger>) {
        if let Some(ledger) = ledger {
            let t = device.cycles_to_s(device.launch_overhead_cycles);
            ledger.post(
                "mlengine.launch",
                device.kind(),
                pspp_accel::EventKind::Launch,
                0,
                pspp_accel::SimDuration::from_secs(t),
                device.energy_j(t),
            );
        }
    }

    /// Fails unless `width` is the feature width the first layer takes.
    fn check_width(&self, width: usize) -> Result<()> {
        if width == self.input_dim() {
            Ok(())
        } else {
            Err(Error::Invalid(format!(
                "model takes {} features, data has {width}",
                self.input_dim()
            )))
        }
    }

    /// Bills the forward pass over a `rows`-example batch: one GEMM per
    /// layer at `(rows, in, out)`, input side first.
    fn bill_forward(&self, device: &DeviceProfile, rows: usize, ledger: Option<&CostLedger>) {
        for w in &self.weights {
            Gemm::charge(device, rows, w.rows(), w.cols(), ledger, "mlengine.forward");
        }
    }

    /// Bills one training step over a `rows`-example batch, in the order
    /// the step runs its GEMMs: the forward pass, then from the top layer
    /// down `dW` at `(in, rows, out)` and, below the first layer, `dA` at
    /// `(rows, out, in)`. The one place a step's shapes are billed.
    fn bill_step(&self, device: &DeviceProfile, rows: usize, ledger: Option<&CostLedger>) {
        self.bill_forward(device, rows, ledger);
        for (l, w) in self.weights.iter().enumerate().rev() {
            let (in_w, out_w) = (w.rows(), w.cols());
            Gemm::charge(device, in_w, rows, out_w, ledger, "mlengine.backward");
            if l > 0 {
                Gemm::charge(device, rows, out_w, in_w, ledger, "mlengine.backward");
            }
        }
    }

    /// Every parameter's bits, weights before biases layer by layer.
    fn parameter_bits(&self) -> impl Iterator<Item = u64> + '_ {
        self.layers()
            .flat_map(|(w, b)| w.as_slice().iter().chain(b))
            .map(|v| v.to_bits())
    }

    /// Forward pass over the `rows` examples of `x` (row-major,
    /// `input_dim()` wide): fills `ws.zs` and `ws.acts` layer by layer,
    /// one GEMM and one fused bias + activation sweep each.
    fn forward(&self, x: &[f64], rows: usize, ws: &mut Workspace) {
        let last = self.depth() - 1;
        for (l, (w, b)) in self.weights.iter().zip(&self.biases).enumerate() {
            let (in_w, out_w) = (w.rows(), w.cols());
            let (below, at) = ws.acts.split_at_mut(l);
            let input = below.last().map_or(x, |a| &a[..rows * in_w]);
            let z = &mut ws.zs[l][..rows * out_w];
            Gemm::multiply_into(input, w.as_slice(), z, rows, in_w, out_w);
            let act = &mut at[0][..rows * out_w];
            for (z_row, a_row) in z.chunks_exact_mut(out_w).zip(act.chunks_exact_mut(out_w)) {
                for ((zv, av), bias) in z_row.iter_mut().zip(a_row).zip(b) {
                    *zv += bias;
                    *av = if l == last { sigmoid(*zv) } else { zv.max(0.0) };
                }
            }
        }
    }

    /// Predicted probability of the positive class per example.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invalid`] when `features` is not `input_dim()`
    /// wide.
    pub fn predict_proba(
        &self,
        device: &DeviceProfile,
        features: &Matrix,
        ledger: Option<&CostLedger>,
    ) -> Result<Vec<f64>> {
        self.check_width(features.cols())?;
        Self::charge_launch(device, ledger);
        let rows = features.rows();
        let mut ws = Workspace::new(&self.weights, rows, false);
        self.forward(features.as_slice(), rows, &mut ws);
        self.bill_forward(&Self::queued(device), rows, ledger);
        Ok(ws.acts.pop().unwrap_or_default())
    }

    /// Hard 0/1 predictions at threshold 0.5.
    ///
    /// # Errors
    ///
    /// As [`Mlp::predict_proba`].
    pub fn predict(
        &self,
        device: &DeviceProfile,
        features: &Matrix,
        ledger: Option<&CostLedger>,
    ) -> Result<Vec<f64>> {
        Ok(self
            .predict_proba(device, features, ledger)?
            .into_iter()
            .map(|p| if p >= 0.5 { 1.0 } else { 0.0 })
            .collect())
    }

    /// Classification accuracy on a dataset.
    ///
    /// # Errors
    ///
    /// As [`Mlp::predict_proba`].
    pub fn accuracy(
        &self,
        device: &DeviceProfile,
        data: &Dataset,
        ledger: Option<&CostLedger>,
    ) -> Result<f64> {
        let preds = self.predict(device, data.features(), ledger)?;
        let correct = preds
            .iter()
            .zip(data.labels())
            .filter(|(p, y)| (*p - **y).abs() < 0.5)
            .count();
        Ok(correct as f64 / data.len().max(1) as f64)
    }

    /// Mean binary cross-entropy loss on a dataset.
    ///
    /// # Errors
    ///
    /// As [`Mlp::predict_proba`].
    pub fn loss(
        &self,
        device: &DeviceProfile,
        data: &Dataset,
        ledger: Option<&CostLedger>,
    ) -> Result<f64> {
        let probs = self.predict_proba(device, data.features(), ledger)?;
        let eps = 1e-12;
        let total: f64 = probs
            .iter()
            .zip(data.labels())
            .map(|(p, y)| -(y * (p + eps).ln() + (1.0 - y) * (1.0 - p + eps).ln()))
            .sum();
        Ok(total / data.len().max(1) as f64)
    }

    /// Forward, loss, backward and update on the examples `x` (row-major)
    /// with targets `labels`, billed by [`Mlp::bill_step`]; the batch
    /// loss is the one before the update.
    fn step(
        &mut self,
        device: &DeviceProfile,
        x: &[f64],
        labels: &[f64],
        learning_rate: f64,
        ws: &mut Workspace,
        ledger: Option<&CostLedger>,
    ) -> f64 {
        let rows = labels.len();
        let n = rows as f64;
        self.bill_step(device, rows, ledger);
        self.forward(x, rows, ws);
        let probs = &ws.acts[self.depth() - 1][..rows];

        let eps = 1e-12;
        let loss = probs
            .iter()
            .zip(labels)
            .map(|(p, y)| -(y * (p + eps).ln() + (1.0 - y) * (1.0 - p + eps).ln()))
            .sum::<f64>()
            / n;

        // Output delta for sigmoid + BCE: (p - y) / n.
        for ((d, p), y) in ws.delta.iter_mut().zip(probs).zip(labels) {
            *d = (p - y) / n;
        }

        // Backward visits the `live` examples only (see the module docs);
        // the bill above is the whole batch's.
        let live = ws.compact(&self.weights, x, rows);
        let x = if live < rows {
            &ws.inputs[..live * self.input_dim()]
        } else {
            x
        };
        for l in (0..self.depth()).rev() {
            let (in_w, out_w) = (self.weights[l].rows(), self.weights[l].cols());
            let delta = &ws.delta[..live * out_w];
            // dW = A_prevᵀ · delta ; db = column sums of delta.
            let a_prev = if l == 0 {
                x
            } else {
                &ws.acts[l - 1][..live * in_w]
            };
            let dw = &mut ws.dw[..in_w * out_w];
            Gemm::multiply_at_into(a_prev, delta, dw, in_w, live, out_w);
            let db = &mut ws.db[..out_w];
            db.fill(0.0);
            for d_row in delta.chunks_exact(out_w) {
                for (acc, d) in db.iter_mut().zip(d_row) {
                    *acc += d;
                }
            }
            // Propagate before updating weights: dA = delta · W_lᵀ.
            if l > 0 {
                let w = self.weights[l].as_slice();
                let w_t = &mut ws.w_t[..out_w * in_w];
                for (r, w_row) in w.chunks_exact(out_w).enumerate() {
                    for (c, &v) in w_row.iter().enumerate() {
                        w_t[c * in_w + r] = v;
                    }
                }
                let da = &mut ws.delta_below[..live * in_w];
                Gemm::multiply_into(delta, w_t, da, live, out_w, in_w);
                // ReLU gate from the saved pre-activations.
                for (d, z) in da.iter_mut().zip(&ws.zs[l - 1]) {
                    if *z <= 0.0 {
                        *d = 0.0;
                    }
                }
            }
            // SGD update.
            for (w, g) in self.weights[l].as_mut_slice().iter_mut().zip(&*dw) {
                *w -= learning_rate * g;
            }
            for (b, g) in self.biases[l].iter_mut().zip(&*db) {
                *b -= learning_rate * g;
            }
            std::mem::swap(&mut ws.delta, &mut ws.delta_below);
        }
        loss
    }

    /// Full SGD training; returns the per-epoch mean batch loss.
    /// Mini-batches are consecutive row ranges of `data`, the last one
    /// shorter when `batch_size` does not divide the row count. Once an
    /// epoch leaves every parameter's bits as they were, the remaining
    /// epochs are billed and not computed (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invalid`] for a zero `batch_size` or when `data`
    /// is not `input_dim()` wide.
    pub fn train(
        &mut self,
        device: &DeviceProfile,
        data: &Dataset,
        config: &TrainConfig,
        ledger: Option<&CostLedger>,
    ) -> Result<Vec<f64>> {
        if config.batch_size == 0 {
            return Err(Error::Invalid("batch size must be positive".into()));
        }
        self.check_width(data.dim())?;
        Self::charge_launch(device, ledger);
        let queued = Self::queued(device);
        let (len, dim) = (data.len(), data.dim());
        let batch = config.batch_size.min(len);
        let mut ws = Workspace::new(&self.weights, batch, true);
        let features = data.features().as_slice();
        let batches = move || {
            (0..len)
                .step_by(batch.max(1))
                .map(move |s| s..(s + batch).min(len))
        };
        let mut losses = Vec::new();
        for epoch in 0..config.epochs {
            for (saved, bits) in ws.start.iter_mut().zip(self.parameter_bits()) {
                *saved = bits;
            }
            let mut epoch_loss = 0.0;
            let mut n_batches = 0usize;
            for rows in batches() {
                epoch_loss += self.step(
                    &queued,
                    &features[rows.start * dim..rows.end * dim],
                    &data.labels()[rows],
                    config.learning_rate,
                    &mut ws,
                    ledger,
                );
                n_batches += 1;
            }
            let loss = epoch_loss / n_batches.max(1) as f64;
            losses.push(loss);
            if self.parameter_bits().eq(ws.start.iter().copied()) {
                for _ in epoch + 1..config.epochs {
                    for rows in batches() {
                        self.bill_step(&queued, rows.len(), ledger);
                    }
                    losses.push(loss);
                }
                break;
            }
        }
        Ok(losses)
    }
}

/// Every buffer one training or inference run needs, sized once for its
/// largest batch; a shorter batch uses a prefix of each.
struct Workspace {
    /// Per-layer pre-activations, `rows × out`.
    zs: Vec<Vec<f64>>,
    /// Per-layer activations, `rows × out`; the last holds the output
    /// probabilities.
    acts: Vec<Vec<f64>>,
    /// δ of the layer being updated, and of the layer below it.
    delta: Vec<f64>,
    delta_below: Vec<f64>,
    /// Gradients and `Wᵀ` of the layer being updated.
    dw: Vec<f64>,
    db: Vec<f64>,
    w_t: Vec<f64>,
    /// The input rows of a compacted batch's live examples.
    inputs: Vec<f64>,
    /// Every parameter's bits as the current epoch started.
    start: Vec<u64>,
}

impl Workspace {
    /// Buffers for batches of up to `rows` examples; the training ones
    /// stay empty for inference.
    fn new(weights: &[Matrix], rows: usize, backward: bool) -> Self {
        let layer = |w: &Matrix| vec![0.0; rows * w.cols()];
        let trained: &[Matrix] = if backward { weights } else { &[] };
        let width = trained.iter().map(Matrix::cols).max().unwrap_or(0);
        let params = trained
            .iter()
            .map(|w| w.rows() * w.cols())
            .max()
            .unwrap_or(0);
        let input_dim = trained.first().map_or(0, Matrix::rows);
        let all_params = trained.iter().map(|w| (w.rows() + 1) * w.cols()).sum();
        Workspace {
            zs: weights.iter().map(layer).collect(),
            acts: weights.iter().map(layer).collect(),
            delta: vec![0.0; rows * width],
            delta_below: vec![0.0; rows * width],
            dw: vec![0.0; params],
            db: vec![0.0; width],
            w_t: vec![0.0; params],
            inputs: vec![0.0; rows * input_dim],
            start: vec![0; all_params],
        }
    }

    /// Moves the examples of the `rows`-example batch `x` that backward
    /// must visit — a nonzero output delta, or a non-finite input feature
    /// or hidden activation — to the front of `delta`, the hidden `acts`
    /// and `zs`, and (copied from `x`) of `inputs`, in their order; returns
    /// how many there are. A batch with no zero delta is left as it is.
    ///
    /// A non-finite entry in a layer's input row makes every
    /// pre-activation of that row non-finite (the GEMM skips only zero
    /// left entries, and `inf` or `NaN` times anything, plus anything, is
    /// never finite), so the first pre-activation of each layer answers
    /// for its whole input row. It may also keep an example whose finite
    /// values overflowed, which is exact too: any example may be visited.
    fn compact(&mut self, weights: &[Matrix], x: &[f64], rows: usize) -> usize {
        if !self.delta[..rows].contains(&0.0) {
            return rows;
        }
        let dim = weights.first().map_or(0, Matrix::rows);
        let hidden = &weights[..weights.len() - 1];
        let mut live = 0;
        for r in 0..rows {
            let carries = self.delta[r] != 0.0
                || weights
                    .iter()
                    .zip(&self.zs)
                    .any(|(w, z)| z.get(r * w.cols()).is_some_and(|v| !v.is_finite()));
            if !carries {
                continue;
            }
            let x_row = &x[r * dim..(r + 1) * dim];
            self.delta[live] = self.delta[r];
            self.inputs[live * dim..(live + 1) * dim].copy_from_slice(x_row);
            for ((w, a), z) in hidden.iter().zip(&mut self.acts).zip(&mut self.zs) {
                let row = r * w.cols()..(r + 1) * w.cols();
                a.copy_within(row.clone(), live * w.cols());
                z.copy_within(row, live * w.cols());
            }
            live += 1;
        }
        live
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_shapes() {
        assert!(Mlp::new(&[4], 1).is_err());
        assert!(Mlp::new(&[4, 2], 1).is_err());
        assert!(Mlp::new(&[4, 8, 1], 1).is_ok());
    }

    #[test]
    fn zero_batch_and_wrong_width_are_typed_errors() {
        let cpu = DeviceProfile::cpu();
        let mut mlp = Mlp::new(&[4, 8, 1], 1).unwrap();
        let ledger = CostLedger::new();
        let zero_batch = TrainConfig {
            batch_size: 0,
            ..TrainConfig::default()
        };
        let data = Dataset::synthetic_threshold(10, 4, 3);
        assert!(matches!(
            mlp.train(&cpu, &data, &zero_batch, Some(&ledger)),
            Err(Error::Invalid(_))
        ));
        let narrow = Dataset::synthetic_threshold(10, 3, 3);
        let config = TrainConfig::default();
        assert!(matches!(
            mlp.train(&cpu, &narrow, &config, Some(&ledger)),
            Err(Error::Invalid(_))
        ));
        assert!(matches!(
            mlp.predict_proba(&cpu, narrow.features(), Some(&ledger)),
            Err(Error::Invalid(_))
        ));
        // Rejected before anything ran or was charged.
        assert!(ledger.is_empty());
    }

    #[test]
    fn parameter_count() {
        let mlp = Mlp::new(&[4, 8, 1], 1).unwrap();
        assert_eq!(mlp.parameter_count(), 4 * 8 + 8 + 8 + 1);
        assert_eq!(mlp.depth(), 2);
    }

    #[test]
    fn training_reduces_loss() {
        let data = Dataset::synthetic_threshold(300, 4, 3);
        let mut mlp = Mlp::new(&[4, 8, 1], 5).unwrap();
        let cpu = DeviceProfile::cpu();
        let before = mlp.loss(&cpu, &data, None).unwrap();
        let losses = mlp
            .train(
                &cpu,
                &data,
                &TrainConfig {
                    epochs: 25,
                    batch_size: 32,
                    learning_rate: 0.5,
                },
                None,
            )
            .unwrap();
        let after = mlp.loss(&cpu, &data, None).unwrap();
        assert!(after < before * 0.5, "loss {before} -> {after}");
        assert!(losses.last().unwrap() < &losses[0]);
    }

    #[test]
    fn learns_threshold_task_well() {
        let data = Dataset::synthetic_threshold(500, 4, 11);
        let (train, test) = data.split(0.2, 13).unwrap();
        let mut mlp = Mlp::new(&[4, 16, 1], 7).unwrap();
        let cpu = DeviceProfile::cpu();
        mlp.train(
            &cpu,
            &train,
            &TrainConfig {
                epochs: 40,
                batch_size: 32,
                learning_rate: 0.5,
            },
            None,
        )
        .unwrap();
        let acc = mlp.accuracy(&cpu, &test, None).unwrap();
        assert!(acc > 0.9, "test accuracy {acc}");
    }

    #[test]
    fn identical_results_on_cpu_and_tpu_models() {
        // The device model changes cost, never numerics.
        let data = Dataset::synthetic_threshold(100, 4, 3);
        let cpu = DeviceProfile::cpu();
        let tpu = DeviceProfile::tpu();
        let mut a = Mlp::new(&[4, 8, 1], 5).unwrap();
        let mut b = Mlp::new(&[4, 8, 1], 5).unwrap();
        let cfg = TrainConfig {
            epochs: 3,
            batch_size: 16,
            learning_rate: 0.2,
        };
        a.train(&cpu, &data, &cfg, None).unwrap();
        b.train(&tpu, &data, &cfg, None).unwrap();
        assert_eq!(
            a.predict_proba(&cpu, data.features(), None).unwrap(),
            b.predict_proba(&tpu, data.features(), None).unwrap()
        );
    }

    #[test]
    fn training_charges_gemms_to_ledger() {
        let data = Dataset::synthetic_threshold(64, 4, 3);
        let ledger = CostLedger::new();
        let mut mlp = Mlp::new(&[4, 8, 1], 5).unwrap();
        mlp.train(
            &DeviceProfile::tpu(),
            &data,
            &TrainConfig {
                epochs: 1,
                batch_size: 32,
                learning_rate: 0.1,
            },
            Some(&ledger),
        )
        .unwrap();
        assert!(!ledger.is_empty());
        assert!(ledger
            .events()
            .iter()
            .all(|e| e.component.starts_with("mlengine.")));
    }
}
