//! An ML/DL data-processing engine (Tensorflow-like substrate).
//!
//! The paper's "Deep Neural Network Engine" (Fig. 2): deep-learning
//! workloads lower to GEMM/GEMV (§III-A.1), so the engine routes all
//! dense algebra through the accelerator GEMM kernel — training and
//! inference can therefore run on the CPU model or the TPU model, with
//! costs posted to the shared [`pspp_accel::CostLedger`].
//!
//! Components:
//!
//! * [`Dataset`] — feature matrix + labels, with deterministic splits.
//! * [`Mlp`] — a multi-layer perceptron with sigmoid output (the Fig. 2
//!   "will the patient stay > 5 days" binary classifier), trained by
//!   mini-batch SGD exactly like the Snorkel loop of Fig. 3.
//! * [`KMeans`] — the Fig. 7 clustering example written as OptiML-style
//!   parallel patterns (map → groupBy → average).
//! * [`LabelModel`] — Snorkel-style weak supervision: combines noisy
//!   labeling functions into probabilistic training labels.
//!
//! # Examples
//!
//! ```
//! use pspp_mlengine::{Dataset, Mlp, TrainConfig};
//! use pspp_accel::DeviceProfile;
//!
//! # fn main() -> pspp_common::Result<()> {
//! // Learn y = x0 > 0.5 from a tiny synthetic set.
//! let data = Dataset::synthetic_threshold(200, 4, 42);
//! let mut mlp = Mlp::new(&[4, 8, 1], 7)?;
//! let cfg = TrainConfig { epochs: 30, batch_size: 16, learning_rate: 0.5 };
//! mlp.train(&DeviceProfile::cpu(), &data, &cfg, None)?;
//! let acc = mlp.accuracy(&DeviceProfile::cpu(), &data, None)?;
//! assert!(acc > 0.9, "accuracy {acc}");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
// ROADMAP item 5: no panicking shortcut outside tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod dataset;
pub mod kmeans;
pub mod label_model;
pub mod mlp;

pub use dataset::Dataset;
pub use kmeans::{KMeans, KMeansConfig};
pub use label_model::{LabelModel, LabelingFunction, Vote};
pub use mlp::{Mlp, TrainConfig};
