//! `Mlp::train` against a full-batch reference trainer, bit for bit.
//!
//! `Mlp::step` runs backward over the live examples of a batch only —
//! nonzero output delta, or a non-finite feature or hidden activation —
//! skips backward and the update when none is live and the learning rate
//! times `0.0` is `+0.0`, writes a one-wide layer's `δ · Wᵀ` as an outer
//! product without the GEMM, and takes one `ln` per 0/1 label; it still
//! charges every GEMM at the whole batch's shape. `Mlp::train` reuses a
//! batch's last step, billed but not computed, while no step has changed
//! a parameter's bits since it ran (see the `mlp` module docs). The
//! reference below is the training loop before those changes, written
//! over the same public kernels ([`Gemm::multiply_into`],
//! [`Gemm::multiply_at_into`], [`Gemm::charge`]) with fresh buffers,
//! every example in every GEMM and every step computed. The trained
//! model's `Debug`, the per-epoch loss bits and the ledger's event list
//! must be the reference's.
//!
//! The data is built to saturate (huge features, labels on the side the
//! sigmoid already sits on, so most output deltas are exactly `0.0`)
//! and to carry the hazards the compaction must not lose: a zero-delta
//! example with an infinite or `NaN` feature, or with finite features
//! whose hidden activations overflow — `inf × 0 = NaN` must still reach
//! `dW` from those. Overflowing rows also put `±inf` and `NaN` into the
//! output layer's `W` and `NaN` into the pre-activations below it, where
//! the outer product must skip a zero `δ` as the GEMM does. Driven data
//! stops moving the model, often in the middle of an epoch: the next
//! epoch reuses the batches after that point, and later ones reuse every
//! batch. At learning rates `-0.3` and `-0.0`, `learning_rate · 0.0` is
//! `-0.0`, so dead steps run their update; soft labels (neither 0 nor 1)
//! keep both logs.

use proptest::prelude::*;
use pspp_accel::kernels::{Gemm, Matrix};
use pspp_accel::{CostLedger, DeviceProfile, EventKind, SimDuration};
use pspp_common::SplitMix64;
use pspp_mlengine::{Dataset, Mlp, TrainConfig};

/// The reference model. Named as the engine's is and with its fields,
/// so the two `Debug` renderings compare as strings.
mod reference {
    use super::*;

    #[derive(Debug)]
    pub struct Mlp {
        weights: Vec<Matrix>,
        biases: Vec<Vec<f64>>,
    }

    /// What one full-batch step saw, for the hazard tests.
    #[derive(Debug, Default)]
    pub struct Seen {
        /// Examples whose output delta was exactly zero.
        pub zero_deltas: usize,
        /// Of those, examples with a non-finite feature.
        pub non_finite_features: usize,
        /// Of those, examples with finite features and a non-finite
        /// hidden activation.
        pub non_finite_activations: usize,
        /// Zero-delta examples where the output layer's `W` holds a
        /// non-finite entry whose ReLU gate below is open (a positive or
        /// `NaN` pre-activation): `0 · W` there is `NaN`, and `δ · Wᵀ`
        /// must skip it as the GEMM does.
        pub zero_deltas_at_non_finite_weights: usize,
        /// Examples with a `NaN` pre-activation below the output layer:
        /// the gate `z <= 0` lets `δ · Wᵀ` through there.
        pub nan_pre_activations: usize,
        /// Epochs, after the first, whose every step is *reused*: its
        /// batch's last step ran at the bits it starts from, and no step
        /// has changed a bit since. `Mlp::train` gives a reused step that
        /// run's loss without computing it.
        pub reused_epochs: usize,
        /// Epochs holding both a reused step and a computed one.
        pub part_reused_epochs: usize,
    }

    fn sigmoid(x: f64) -> f64 {
        1.0 / (1.0 + (-x).exp())
    }

    fn finite(v: &[f64]) -> bool {
        v.iter().all(|f| f.is_finite())
    }

    impl Mlp {
        /// He initialisation from `seed`, as `Mlp::new` draws it.
        pub fn new(sizes: &[usize], seed: u64) -> Self {
            let mut rng = SplitMix64::new(seed);
            let mut weights = Vec::new();
            let mut biases = Vec::new();
            for w in sizes.windows(2) {
                let (fan_in, fan_out) = (w[0], w[1]);
                let scale = (2.0 / fan_in as f64).sqrt();
                let data = (0..fan_in * fan_out)
                    .map(|_| rng.next_gaussian() * scale)
                    .collect();
                weights.push(Matrix::from_vec(fan_in, fan_out, data).expect("fan_in × fan_out"));
                biases.push(vec![0.0; fan_out]);
            }
            Mlp { weights, biases }
        }

        /// Pre-activations and activations of every layer over `rows`
        /// examples, each GEMM charged at `rows`.
        fn forward(
            &self,
            device: &DeviceProfile,
            x: &[f64],
            rows: usize,
            ledger: &CostLedger,
        ) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
            let last = self.weights.len() - 1;
            let (mut zs, mut acts): (Vec<Vec<f64>>, Vec<Vec<f64>>) = (Vec::new(), Vec::new());
            for (l, (w, b)) in self.weights.iter().zip(&self.biases).enumerate() {
                let (in_w, out_w) = (w.rows(), w.cols());
                let input = if l == 0 { x } else { &acts[l - 1] };
                let mut z = vec![0.0; rows * out_w];
                Gemm::multiply_into(input, w.as_slice(), &mut z, rows, in_w, out_w);
                Gemm::charge(device, rows, in_w, out_w, Some(ledger), "mlengine.forward");
                let mut a = vec![0.0; rows * out_w];
                for (z_row, a_row) in z.chunks_exact_mut(out_w).zip(a.chunks_exact_mut(out_w)) {
                    for ((zv, av), bias) in z_row.iter_mut().zip(a_row).zip(b) {
                        *zv += bias;
                        *av = if l == last { sigmoid(*zv) } else { zv.max(0.0) };
                    }
                }
                zs.push(z);
                acts.push(a);
            }
            (zs, acts)
        }

        /// One step with every example in every GEMM.
        fn step(
            &mut self,
            device: &DeviceProfile,
            x: &[f64],
            labels: &[f64],
            learning_rate: f64,
            ledger: &CostLedger,
            seen: &mut Seen,
        ) -> f64 {
            let rows = labels.len();
            let n = rows as f64;
            let depth = self.weights.len();
            let (zs, acts) = self.forward(device, x, rows, ledger);
            let probs = &acts[depth - 1];
            let eps = 1e-12;
            let loss = probs
                .iter()
                .zip(labels)
                .map(|(p, y)| -(y * (p + eps).ln() + (1.0 - y) * (1.0 - p + eps).ln()))
                .sum::<f64>()
                / n;
            let mut delta: Vec<f64> = probs.iter().zip(labels).map(|(p, y)| (p - y) / n).collect();
            let dim = self.weights[0].rows();
            let top = &self.weights[depth - 1];
            for (r, d) in delta.iter().enumerate() {
                let below =
                    (depth > 1).then(|| &zs[depth - 2][r * top.rows()..(r + 1) * top.rows()]);
                if below.is_some_and(|z| z.iter().any(|v| v.is_nan())) {
                    seen.nan_pre_activations += 1;
                }
                if *d != 0.0 {
                    continue;
                }
                seen.zero_deltas += 1;
                if !finite(&x[r * dim..(r + 1) * dim]) {
                    seen.non_finite_features += 1;
                } else if self.weights[..depth - 1]
                    .iter()
                    .zip(&acts)
                    .any(|(w, a)| !finite(&a[r * w.cols()..(r + 1) * w.cols()]))
                {
                    seen.non_finite_activations += 1;
                } else {
                    continue;
                }
                let open = |(z, w): (&f64, &f64)| (*z > 0.0 || z.is_nan()) && !w.is_finite();
                if below.is_some_and(|z| z.iter().zip(top.as_slice()).any(open)) {
                    seen.zero_deltas_at_non_finite_weights += 1;
                }
            }
            for l in (0..depth).rev() {
                let (in_w, out_w) = (self.weights[l].rows(), self.weights[l].cols());
                let a_prev = if l == 0 { x } else { &acts[l - 1] };
                let mut dw = vec![0.0; in_w * out_w];
                Gemm::multiply_at_into(a_prev, &delta, &mut dw, in_w, rows, out_w);
                Gemm::charge(device, in_w, rows, out_w, Some(ledger), "mlengine.backward");
                let mut db = vec![0.0; out_w];
                for d_row in delta.chunks_exact(out_w) {
                    for (acc, d) in db.iter_mut().zip(d_row) {
                        *acc += d;
                    }
                }
                let mut below = Vec::new();
                if l > 0 {
                    let mut w_t = vec![0.0; out_w * in_w];
                    for r in 0..in_w {
                        for c in 0..out_w {
                            w_t[c * in_w + r] = self.weights[l].get(r, c);
                        }
                    }
                    below = vec![0.0; rows * in_w];
                    Gemm::multiply_into(&delta, &w_t, &mut below, rows, out_w, in_w);
                    Gemm::charge(device, rows, out_w, in_w, Some(ledger), "mlengine.backward");
                    for (d, z) in below.iter_mut().zip(&zs[l - 1]) {
                        if *z <= 0.0 {
                            *d = 0.0;
                        }
                    }
                }
                for (w, g) in self.weights[l].as_mut_slice().iter_mut().zip(&dw) {
                    *w -= learning_rate * g;
                }
                for (b, g) in self.biases[l].iter_mut().zip(&db) {
                    *b -= learning_rate * g;
                }
                delta = below;
            }
            loss
        }

        /// Every parameter's bits, weights before biases layer by layer.
        fn bits(&self) -> Vec<u64> {
            self.weights
                .iter()
                .zip(&self.biases)
                .flat_map(|(w, b)| w.as_slice().iter().chain(b))
                .map(|v| v.to_bits())
                .collect()
        }

        /// `Mlp::train`: one launch at `device`'s overhead, then
        /// consecutive mini-batches on the launch-free queue.
        pub fn train(
            &mut self,
            device: &DeviceProfile,
            data: &Dataset,
            config: &TrainConfig,
            ledger: &CostLedger,
        ) -> (Vec<f64>, Seen) {
            let t = device.cycles_to_s(device.launch_overhead_cycles);
            ledger.post(
                "mlengine.launch",
                device.kind(),
                EventKind::Launch,
                0,
                SimDuration::from_secs(t),
                device.energy_j(t),
            );
            let mut queued = device.clone();
            queued.launch_overhead_cycles = 0;
            let (len, dim) = (data.len(), data.dim());
            let batch = config.batch_size.min(len);
            let x = data.features().as_slice();
            let mut seen = Seen::default();
            let mut losses = Vec::new();
            // Per batch, the number of bit-changing steps before its last
            // step; the engine's parameter version.
            let mut ran: Vec<Option<usize>> = vec![None; len.div_ceil(batch.max(1))];
            let mut changes = 0;
            for _ in 0..config.epochs {
                let (mut total, mut batches) = (0.0f64, 0usize);
                let (mut reused, mut computed) = (false, false);
                for start in (0..len).step_by(batch.max(1)) {
                    let end = (start + batch).min(len);
                    let before = self.bits();
                    let last = &mut ran[batches];
                    let repeat = *last == Some(changes);
                    (reused, computed) = (reused || repeat, computed || !repeat);
                    *last = Some(changes);
                    let loss = self.step(
                        &queued,
                        &x[start * dim..end * dim],
                        &data.labels()[start..end],
                        config.learning_rate,
                        ledger,
                        &mut seen,
                    );
                    // Of two NaNs, `+` may return either: keep the first.
                    if !total.is_nan() {
                        total += loss;
                    }
                    changes += usize::from(self.bits() != before);
                    batches += 1;
                }
                losses.push(total / batches.max(1) as f64);
                seen.reused_epochs += usize::from(reused && !computed);
                seen.part_reused_epochs += usize::from(reused && computed);
            }
            (losses, seen)
        }
    }
}

/// How a drawn example is built.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Features in `[-1, 1]`, a random label: a nonzero delta.
    Plain,
    /// Features of magnitude `1e3..1e6`, labelled where the untrained
    /// sigmoid already sits: an exactly-zero delta while it stays there.
    Saturated,
    /// Saturated, plus one `±inf` or `NaN` feature.
    NonFiniteFeature,
    /// Finite features near `f64::MAX`: hidden activations overflow.
    Overflowing,
    /// Positive features of magnitude `1e3..1e6`, labelled `0`: the
    /// first steps drive the sigmoid to exactly `0.0` on them.
    Driven,
    /// All-zero features and a random label: no ReLU ever opens, so only
    /// the output bias learns.
    Blank,
    /// Plain features and a label in `[-0.5, 1.5]`, not 0 or 1: the loss
    /// takes both logs.
    Soft,
}

fn features(kind: Kind, dim: usize, rng: &mut SplitMix64) -> Vec<f64> {
    let signed = |v: f64, rng: &mut SplitMix64| if rng.next_bool(0.5) { v } else { -v };
    let mut f: Vec<f64> = (0..dim)
        .map(|_| match kind {
            Kind::Plain | Kind::Soft => rng.next_range(-1.0, 1.0),
            Kind::Saturated | Kind::NonFiniteFeature => {
                let v = rng.next_range(1e3, 1e6);
                signed(v, rng)
            }
            Kind::Overflowing => {
                let v = f64::MAX / rng.next_range(1.0, 3.0);
                signed(v, rng)
            }
            Kind::Driven => rng.next_range(1e3, 1e6),
            Kind::Blank => 0.0,
        })
        .collect();
    if let Kind::NonFiniteFeature = kind {
        let at = rng.next_index(dim);
        f[at] = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][rng.next_index(3)];
    }
    f
}

/// `rows` examples drawn by `pick`; saturated, non-finite and
/// overflowing ones are labelled by what the untrained `mlp` predicts
/// for them.
fn dataset(
    mlp: &Mlp,
    rows: usize,
    dim: usize,
    rng: &mut SplitMix64,
    mut pick: impl FnMut(&mut SplitMix64) -> Kind,
) -> Dataset {
    let kinds: Vec<Kind> = (0..rows).map(|_| pick(rng)).collect();
    let data: Vec<f64> = kinds.iter().flat_map(|&k| features(k, dim, rng)).collect();
    let x = Matrix::from_vec(rows, dim, data).expect("rows × dim");
    let side = mlp
        .predict(&DeviceProfile::cpu(), &x, None)
        .expect("width matches");
    let labels = kinds
        .iter()
        .zip(side)
        .map(|(k, s)| match k {
            Kind::Plain | Kind::Blank => f64::from(u8::from(rng.next_bool(0.5))),
            Kind::Driven => 0.0,
            Kind::Soft => rng.next_range(-0.5, 1.5),
            _ => s,
        })
        .collect();
    Dataset::new(x, labels).expect("one label per row")
}

/// Trains the engine and the reference from the same start; returns what
/// the reference saw.
fn same_training(
    sizes: &[usize],
    seed: u64,
    data: &Dataset,
    device: &DeviceProfile,
    config: &TrainConfig,
) -> Result<reference::Seen, TestCaseError> {
    let mut mlp = Mlp::new(sizes, seed).expect("valid sizes");
    let mut want = reference::Mlp::new(sizes, seed);
    prop_assert_eq!(format!("{mlp:?}"), format!("{want:?}"));
    let (got_ledger, want_ledger) = (CostLedger::new(), CostLedger::new());
    let got = mlp
        .train(device, data, config, Some(&got_ledger))
        .expect("trains");
    let (losses, seen) = want.train(device, data, config, &want_ledger);
    let bits = |v: &[f64]| v.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(bits(&got), bits(&losses));
    prop_assert_eq!(format!("{mlp:?}"), format!("{want:?}"));
    prop_assert_eq!(
        format!("{:?}", got_ledger.events()),
        format!("{:?}", want_ledger.events())
    );
    Ok(seen)
}

fn device(pick: u64) -> DeviceProfile {
    match pick % 3 {
        0 => DeviceProfile::cpu(),
        1 => DeviceProfile::gpu(),
        _ => DeviceProfile::tpu(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn compacted_backward_trains_the_full_batch_model(
        seed in 0u64..u64::MAX,
        hidden in prop::collection::vec(1usize..9, 1..4),
        dim in 1usize..5,
        rows in 1usize..90,
        batch in 1usize..40,
        epochs in 1usize..8,
        mix in 0u8..8,
    ) {
        let sizes: Vec<usize> = std::iter::once(dim).chain(hidden).chain([1]).collect();
        let mut rng = SplitMix64::new(seed);
        let start = Mlp::new(&sizes, seed).expect("valid sizes");
        // 0: plain rows (the dense path); 1: saturated with plain ones
        // mixed in; 2: that plus the non-finite hazards; 3: saturated
        // only (whole batches with nothing live); 4: driven only (the
        // model moves, then often stops); 5: blank only (the weights
        // stop, the output bias does not); 6: driven only, in batches of
        // at most a third of the rows (the model often stops in the
        // middle of an epoch, and the next epoch reuses the batches after
        // that point);
        // 7: plain rows, half with a label that is neither 0 nor 1.
        let data = dataset(&start, rows, dim, &mut rng, |rng| {
            let u = rng.next_f64();
            match mix {
                0 => Kind::Plain,
                1 if u < 0.2 => Kind::Plain,
                2 if u < 0.15 => Kind::Plain,
                2 if u < 0.3 => Kind::NonFiniteFeature,
                2 if u < 0.45 => Kind::Overflowing,
                4 | 6 => Kind::Driven,
                5 => Kind::Blank,
                7 if u < 0.5 => Kind::Soft,
                7 => Kind::Plain,
                _ => Kind::Saturated,
            }
        });
        let batch = if mix == 6 { 1 + batch % (rows / 3).max(1) } else { batch };
        let config = TrainConfig {
            epochs,
            batch_size: batch,
            learning_rate: [0.3, 0.05, 1.0, 0.0, -0.3, -0.0][rng.next_index(6)],
        };
        same_training(&sizes, seed, &data, &device(seed >> 7), &config)?;
    }
}

/// Two epochs in batches of 8, the last of a 24-row set full.
const TWO_EPOCHS: TrainConfig = TrainConfig {
    epochs: 2,
    batch_size: 8,
    learning_rate: 0.3,
};

/// Trains `sizes` on `around` rows mixed with `kind` over 64 seeds,
/// holding the engine to the reference on each, and fails unless the
/// reference met the hazard `hit` counts at least once.
fn hazard(
    sizes: &[usize],
    (kind, around): (Kind, Kind),
    config: &TrainConfig,
    hit: fn(&reference::Seen) -> usize,
) {
    let mut hits = 0;
    for seed in 0..64u64 {
        let mut rng = SplitMix64::new(seed);
        let start = Mlp::new(sizes, seed).expect("valid sizes");
        let data = dataset(&start, 24, sizes[0], &mut rng, |rng| {
            if rng.next_bool(0.3) {
                kind
            } else {
                around
            }
        });
        let seen = same_training(sizes, seed, &data, &DeviceProfile::tpu(), config)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        hits += hit(&seen);
    }
    assert!(hits > 0, "no seed produced the hazard");
}

#[test]
fn a_zero_delta_example_with_an_infinite_feature_still_reaches_dw() {
    let hit = |s: &reference::Seen| s.non_finite_features;
    // Saturated rows around the hazard keep the batch compacting.
    let kinds = (Kind::NonFiniteFeature, Kind::Saturated);
    hazard(&[3, 1], kinds, &TWO_EPOCHS, hit);
    hazard(&[3, 4, 1], kinds, &TWO_EPOCHS, hit);
}

#[test]
fn a_zero_delta_example_whose_activations_overflow_still_reaches_dw() {
    let hit = |s: &reference::Seen| s.non_finite_activations;
    let kinds = (Kind::Overflowing, Kind::Saturated);
    hazard(&[2, 4, 1], kinds, &TWO_EPOCHS, hit);
    hazard(&[2, 3, 3, 1], kinds, &TWO_EPOCHS, hit);
}

#[test]
fn saturated_batches_train_as_the_full_batch_does() {
    let kinds = (Kind::Saturated, Kind::Saturated);
    hazard(&[4, 8, 1], kinds, &TWO_EPOCHS, |s| s.zero_deltas);
}

/// Driven rows only, five epochs in batches of 7 (a ragged last batch
/// of 3). Once no step changes a bit, `Mlp::train` reuses every batch's
/// last step without computing it; the model, every loss and every
/// ledger event must still be the reference's, which computes each
/// step. The hit is a training that moved the model and then stopped:
/// 1 to 3 of the 4 epochs after the first reused whole.
#[test]
fn an_epoch_that_changes_nothing_repeats_to_the_end() {
    let config = TrainConfig {
        epochs: 5,
        batch_size: 7,
        learning_rate: 0.3,
    };
    let kinds = (Kind::Driven, Kind::Driven);
    let hit = |s: &reference::Seen| usize::from((1..4).contains(&s.reused_epochs));
    hazard(&[3, 4, 1], kinds, &config, hit);
    hazard(&[2, 3, 3, 1], kinds, &config, hit);
}

/// Driven rows only, in three batches an epoch. When the model stops
/// moving after the first batch of an epoch, the next epoch computes its
/// first batch again (the model has moved since it ran) and reuses the
/// rest. The hit is such an epoch.
#[test]
fn a_step_is_reused_inside_an_epoch_that_computes_others() {
    let kinds = (Kind::Driven, Kind::Driven);
    let hit = |s: &reference::Seen| s.part_reused_epochs;
    hazard(&[3, 4, 1], kinds, &TWO_EPOCHS, hit);
    hazard(&[2, 3, 3, 1], kinds, &TWO_EPOCHS, hit);
}

/// Overflowing rows among driven ones: the first step writes `±inf` or
/// `NaN` into the output layer's `W`, and overflowed hidden layers give
/// `NaN` pre-activations. A one-wide layer's `δ · Wᵀ` must leave `+0.0`
/// at a zero `δ` whatever `W` holds, and let `δ · W` through a `NaN`
/// pre-activation, as the GEMM and the ReLU gate do. The hits are a live
/// zero-delta example with an open gate at a non-finite weight, and a
/// `NaN` pre-activation below the output layer.
#[test]
fn the_output_layer_backward_skips_zero_deltas_at_non_finite_weights() {
    let kinds = (Kind::Overflowing, Kind::Driven);
    for sizes in [&[2, 4, 1][..], &[2, 3, 3, 1]] {
        hazard(sizes, kinds, &TWO_EPOCHS, |s| {
            s.zero_deltas_at_non_finite_weights
        });
        hazard(sizes, kinds, &TWO_EPOCHS, |s| s.nan_pre_activations);
    }
}
