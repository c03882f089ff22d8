//! A multi-layer perceptron trained by mini-batch SGD.
//!
//! Training and inference lower to GEMM/GEMV exactly as §III-A.1
//! describes, and every matrix multiply is the accelerator crate's
//! [`Gemm`] kernel charged by shape, so the same training loop can be
//! costed on the CPU model or offloaded to the TPU model — the paper's
//! Fig. 3 scenario. One `Workspace` per run holds every intermediate;
//! the loop itself allocates nothing. `Mlp::step_events` is the one
//! place a step's GEMM shapes are billed: `Mlp::train` builds its event
//! list once per batch shape (the full batch and the ragged last one)
//! and posts it for every step under one ledger lock. The arithmetic
//! charges nothing, so what the ledger sees does not depend on what the
//! host computed.
//!
//! # Steps that cannot change the model
//!
//! A step is a deterministic function of the parameters, the batch and
//! the learning rate: every workspace buffer it reads, it first wrote in
//! that step. `Mlp::train` counts a parameter *version*: the steps so
//! far that changed at least one parameter's bits, which the SGD update
//! reports by comparing each parameter's bits as it writes it. For each
//! batch it keeps the version its last step ran at and the loss that
//! step returned. A batch whose recorded version is the current one
//! would run on the bits it ran on before and change nothing again, so
//! it is billed and given the recorded loss without being computed. The
//! comparison is on `to_bits()`, so `NaN` payloads and `±0.0` count;
//! there is no tolerance.
//!
//! Once a whole epoch changes nothing, every later batch is reused, and
//! so is the tail of the epoch before it, after its last change. A
//! saturated training (every output delta `0.0` once its first step has
//! moved the model) computes that first step, the other batches once,
//! and the first batch once more. The one case this misses is an epoch
//! that returns to its starting bits through steps that did change them:
//! each such step bumps the version, so the next epoch is computed.
//!
//! The epoch loss is the mean of its batch losses in batch order. Of two
//! `NaN` operands `+` may return either, so the sum keeps the first
//! `NaN` it meets.
//!
//! # Dead steps
//!
//! A step with no live example (below) computes `dW` and `db` as `+0.0`
//! throughout and subtracts `learning_rate · +0.0` from every parameter.
//! When that product is `+0.0`, `p - 0.0` is `p` for every `p`, `-0.0`
//! and `NaN` included, so the step skips backward and the update and
//! does not bump the version. A negative learning rate (`-0.0`
//! included) makes the product `-0.0`, and `-0.0 - -0.0` is `+0.0`: such
//! a step runs its update.
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
//! prefix. A batch with no zero delta pays one scan of its deltas. The
//! bill is still the whole batch's shape, so the ledger, the simulated
//! clock and the energy do not see the shortcut.
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
//!
//! # The one-wide layer's backward
//!
//! The output layer is one wide (as is any one-wide hidden layer), so
//! its `dA = δ · Wᵀ` is an outer product: one term per entry. The GEMM
//! skips that term when `δ` is `0.0` and otherwise adds it to `0.0`, and
//! the ReLU gate then zeroes the entries over pre-activations `<= 0`.
//! `Mlp::step` writes the same in one pass, with no transpose and no
//! GEMM call: `0.0` where `z <= 0` or `δ == 0`, else `0.0 + δ · w`. A
//! `NaN` pre-activation passes the gate, and a zero `δ` leaves `0.0`
//! even where `w` is infinite or `NaN`.

use pspp_accel::kernels::{Gemm, Matrix};
use pspp_accel::{CostEvent, CostLedger, DeviceProfile};
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

    /// The events one training step over a `rows`-example batch posts,
    /// in the order the step runs its GEMMs: the forward pass, then from
    /// the top layer down `dW` at `(in, rows, out)` and, below the first
    /// layer, `dA` at `(rows, out, in)`. The one place a step's shapes are
    /// billed.
    fn step_events(&self, device: &DeviceProfile, rows: usize) -> Vec<CostEvent> {
        let gemm = |m, k, n, name| Gemm::charge(device, m, k, n, None, name).event(name);
        let mut events: Vec<CostEvent> = (self.weights.iter())
            .map(|w| gemm(rows, w.rows(), w.cols(), "mlengine.forward"))
            .collect();
        for (l, w) in self.weights.iter().enumerate().rev() {
            let (in_w, out_w) = (w.rows(), w.cols());
            events.push(gemm(in_w, rows, out_w, "mlengine.backward"));
            if l > 0 {
                events.push(gemm(rows, out_w, in_w, "mlengine.backward"));
            }
        }
        events
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
        let total: f64 = probs
            .iter()
            .zip(data.labels())
            .map(|(&p, &y)| cross_entropy(p, y))
            .sum();
        Ok(total / data.len().max(1) as f64)
    }

    /// Forward, loss, backward and update on the examples `x` (row-major)
    /// with targets `labels`; returns the batch loss (the one before the
    /// update) and whether any parameter's bits changed. The caller bills
    /// the step, with [`Mlp::step_events`].
    fn step(
        &mut self,
        x: &[f64],
        labels: &[f64],
        learning_rate: f64,
        ws: &mut Workspace,
    ) -> (f64, bool) {
        let rows = labels.len();
        let n = rows as f64;
        self.forward(x, rows, ws);
        let probs = &ws.acts[self.depth() - 1][..rows];
        let loss = probs
            .iter()
            .zip(labels)
            .map(|(&p, &y)| cross_entropy(p, y))
            .sum::<f64>()
            / n;

        // Output delta for sigmoid + BCE: (p - y) / n.
        for ((d, p), y) in ws.delta.iter_mut().zip(probs).zip(labels) {
            *d = (p - y) / n;
        }

        // Backward visits the `live` examples only, and a step with none
        // changes nothing unless `learning_rate · 0.0` is `-0.0` (see the
        // module docs).
        let live = ws.compact(&self.weights, x, rows);
        if live == 0 && (learning_rate * 0.0).to_bits() == 0.0f64.to_bits() {
            return (loss, false);
        }
        let x = if live < rows {
            &ws.inputs[..live * self.input_dim()]
        } else {
            x
        };
        let mut changed = false;
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
            // Propagate before updating weights: dA = delta · W_lᵀ, gated
            // by ReLU on the saved pre-activations.
            if l > 0 {
                let w = self.weights[l].as_slice();
                let da = &mut ws.delta_below[..live * in_w];
                let zs = &ws.zs[l - 1][..live * in_w];
                if out_w == 1 {
                    // The outer product δ · wᵀ, each entry what the GEMM's
                    // one term leaves: skipped at δ = 0, else added to 0.0.
                    let rows = da.chunks_exact_mut(in_w).zip(zs.chunks_exact(in_w));
                    for ((da_row, z_row), &d) in rows.zip(delta) {
                        for ((a, &z), &wv) in da_row.iter_mut().zip(z_row).zip(w) {
                            *a = if z <= 0.0 || d == 0.0 {
                                0.0
                            } else {
                                0.0 + d * wv
                            };
                        }
                    }
                } else {
                    let w_t = &mut ws.w_t[..out_w * in_w];
                    for (r, w_row) in w.chunks_exact(out_w).enumerate() {
                        for (c, &v) in w_row.iter().enumerate() {
                            w_t[c * in_w + r] = v;
                        }
                    }
                    Gemm::multiply_into(delta, w_t, da, live, out_w, in_w);
                    for (d, z) in da.iter_mut().zip(zs) {
                        if *z <= 0.0 {
                            *d = 0.0;
                        }
                    }
                }
            }
            changed |= descend(self.weights[l].as_mut_slice(), dw, learning_rate);
            changed |= descend(&mut self.biases[l], db, learning_rate);
            std::mem::swap(&mut ws.delta, &mut ws.delta_below);
        }
        (loss, changed)
    }

    /// Full SGD training; returns the per-epoch mean batch loss.
    /// Mini-batches are consecutive row ranges of `data`, the last one
    /// shorter when `batch_size` does not divide the row count. A batch
    /// whose last step ran at the parameters it would run at now is
    /// billed and given that step's loss without being computed (see the
    /// module docs).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Invalid`] for a zero `batch_size`, a non-finite
    /// `learning_rate`, or when `data` is not `input_dim()` wide.
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
        if !config.learning_rate.is_finite() {
            return Err(Error::Invalid(format!(
                "learning rate must be finite, got {}",
                config.learning_rate
            )));
        }
        self.check_width(data.dim())?;
        Self::charge_launch(device, ledger);
        let queued = Self::queued(device);
        let (len, dim) = (data.len(), data.dim());
        let batch = config.batch_size.min(len).max(1);
        let mut ws = Workspace::new(&self.weights, batch, true);
        let features = data.features().as_slice();
        // Each batch shape's events, built once: the full batch's, then
        // the ragged last one's.
        let bills =
            ledger.map(|_| [batch, len % batch].map(|rows| self.step_events(&queued, rows)));
        // Per batch, the parameter version its last step ran at and that
        // step's loss. The version counts steps that changed a bit.
        let mut ran: Vec<Option<(u64, f64)>> = vec![None; len.div_ceil(batch)];
        let mut version = 0u64;
        let mut losses = Vec::with_capacity(config.epochs);
        for _ in 0..config.epochs {
            let mut epoch_loss = 0.0f64;
            for (start, last) in (0..len).step_by(batch).zip(&mut ran) {
                let rows = start..(start + batch).min(len);
                if let (Some(ledger), Some(bills)) = (ledger, &bills) {
                    let shape = &bills[usize::from(rows.len() < batch)];
                    ledger.post_events(shape.iter().cloned());
                }
                let loss = match *last {
                    Some((at, loss)) if at == version => loss,
                    _ => {
                        let (loss, changed) = self.step(
                            &features[rows.start * dim..rows.end * dim],
                            &data.labels()[rows],
                            config.learning_rate,
                            &mut ws,
                        );
                        *last = Some((version, loss));
                        version += u64::from(changed);
                        loss
                    }
                };
                // Of two NaNs, `+` may return either: keep the first.
                if !epoch_loss.is_nan() {
                    epoch_loss += loss;
                }
            }
            losses.push(epoch_loss / ran.len().max(1) as f64);
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
        Workspace {
            zs: weights.iter().map(layer).collect(),
            acts: weights.iter().map(layer).collect(),
            delta: vec![0.0; rows * width],
            delta_below: vec![0.0; rows * width],
            dw: vec![0.0; params],
            db: vec![0.0; width],
            w_t: vec![0.0; params],
            inputs: vec![0.0; rows * input_dim],
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

/// `p -= learning_rate · g` for every parameter `p` and its gradient
/// `g`; whether any parameter's bits changed.
fn descend(params: &mut [f64], grads: &[f64], learning_rate: f64) -> bool {
    let mut changed = false;
    for (p, g) in params.iter_mut().zip(grads) {
        let next = *p - learning_rate * g;
        changed |= next.to_bits() != p.to_bits();
        *p = next;
    }
    changed
}

/// Binary cross-entropy of the probability `p` against the label `y`,
/// `-(y·ln(p + ε) + (1 - y)·ln(1 - p + ε))`. For a 0/1 label and `p` in
/// `[0, 1]` both logs are finite, so the term the label zeroes is a
/// signed zero, and adding it leaves the other term (never `-0.0`) as it
/// is: one `ln` gives the two-term sum's bits.
fn cross_entropy(p: f64, y: f64) -> f64 {
    const EPS: f64 = 1e-12;
    if (0.0..=1.0).contains(&p) {
        if y == 1.0 {
            return -(p + EPS).ln();
        }
        if y == 0.0 {
            return -(1.0 - p + EPS).ln();
        }
    }
    -(y * (p + EPS).ln() + (1.0 - y) * (1.0 - p + EPS).ln())
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
        // An `LR` literal past `f64`'s range lexes as infinite.
        for learning_rate in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let config = TrainConfig {
                learning_rate,
                ..TrainConfig::default()
            };
            assert!(matches!(
                mlp.train(&cpu, &data, &config, Some(&ledger)),
                Err(Error::Invalid(_))
            ));
        }
        // Rejected before anything ran or was charged.
        assert!(ledger.is_empty());
        let untouched = Mlp::new(&[4, 8, 1], 1).unwrap();
        assert_eq!(format!("{mlp:?}"), format!("{untouched:?}"));
    }

    /// A step with no live example adds `learning_rate · +0.0` to every
    /// parameter. At a negative rate that is `-0.0`, which turns a `-0.0`
    /// parameter into `+0.0`, so the step must still run its update.
    #[test]
    fn a_dead_step_updates_a_negative_zero_only_at_a_negative_rate() {
        let x = Matrix::from_vec(2, 1, vec![1e6, 2e6]).unwrap();
        let saturated = Dataset::new(x, vec![1.0, 1.0]).unwrap();
        for (learning_rate, bias) in [(0.3, -0.0f64), (0.0, -0.0), (-0.3, 0.0), (-0.0, 0.0)] {
            let mut mlp = Mlp {
                weights: vec![Matrix::from_vec(1, 1, vec![1.0]).unwrap()],
                biases: vec![vec![-0.0]],
            };
            let config = TrainConfig {
                epochs: 2,
                batch_size: 2,
                learning_rate,
            };
            mlp.train(&DeviceProfile::cpu(), &saturated, &config, None)
                .unwrap();
            assert_eq!(mlp.weights[0].as_slice(), [1.0]);
            assert_eq!(
                mlp.biases[0][0].to_bits(),
                bias.to_bits(),
                "learning rate {learning_rate}"
            );
        }
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
