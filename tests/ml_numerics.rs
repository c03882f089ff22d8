//! Golden numerics of the ML engine's host compute path.
//!
//! Every constant below was captured at the commit before the GEMM
//! kernel and the training loop were rebuilt (PR 16's parent): the
//! trained model, the per-epoch losses and the ledger's event list must
//! stay bit-identical across any change to how the arithmetic is
//! scheduled. polybench's warm pass only holds a run to itself; this
//! pins the values across commits.

use polystorepp::accel::kernels::Matrix;
use polystorepp::accel::{CostLedger, DeviceProfile};
use polystorepp::common::partition::{fnv1a, FNV_OFFSET};
use polystorepp::mlengine::{Dataset, Mlp, TrainConfig};
use polystorepp::prelude::*;

fn model_digest(mlp: &Mlp) -> u64 {
    fnv1a(format!("{mlp:?}").as_bytes(), FNV_OFFSET)
}

/// FNV over the ledger's `(component, kind, bytes, duration bits)` list.
fn ledger_digest(ledger: &CostLedger) -> (usize, u64) {
    let events = ledger.events();
    let mut h = FNV_OFFSET;
    for e in &events {
        h = fnv1a(e.component.as_bytes(), h);
        h = fnv1a(format!("{:?}", e.kind).as_bytes(), h);
        h = fnv1a(&e.bytes.to_le_bytes(), h);
        h = fnv1a(&e.duration.as_secs().to_bits().to_le_bytes(), h);
    }
    (events.len(), h)
}

struct Golden {
    model: u64,
    losses: &'static [u64],
    events: usize,
    ledger: u64,
}

fn check(sizes: &[usize], rows: usize, device: &DeviceProfile, config: TrainConfig, want: &Golden) {
    check_on(
        sizes,
        &Dataset::synthetic_threshold(rows, sizes[0], 17),
        device,
        config,
        want,
    );
}

fn check_on(
    sizes: &[usize],
    data: &Dataset,
    device: &DeviceProfile,
    config: TrainConfig,
    want: &Golden,
) {
    let mut mlp = Mlp::new(sizes, 23).expect("valid sizes");
    let ledger = CostLedger::new();
    let losses = mlp
        .train(device, data, &config, Some(&ledger))
        .expect("trains");
    let loss_bits: Vec<u64> = losses.iter().map(|l| l.to_bits()).collect();
    let (events, ledger_fnv) = ledger_digest(&ledger);
    assert_eq!(
        (model_digest(&mlp), loss_bits.as_slice(), events, ledger_fnv),
        (want.model, want.losses, want.events, want.ledger),
        "got model {:#018x}, losses {loss_bits:#018x?}, {events} events, ledger {ledger_fnv:#018x}",
        model_digest(&mlp),
    );
}

/// Two hidden layers, 1 316 rows in batches of 128: ten full batches
/// and a ragged one of 36, on the TPU's systolic cycle model.
#[test]
fn deep_mlp_with_ragged_last_batch_is_bit_stable() {
    check(
        &[8, 64, 32, 1],
        1_316,
        &DeviceProfile::tpu(),
        TrainConfig {
            epochs: 3,
            batch_size: 128,
            learning_rate: 0.3,
        },
        &Golden {
            model: 0xeab4_c501_6f36_e817,
            losses: &[
                0x3fe1_da77_f33c_32d7,
                0x3fdc_4f36_702f_a354,
                0x3fd4_56e7_172c_b397,
            ],
            events: 265,
            ledger: 0xe2d7_0c50_ad46_143e,
        },
    );
}

/// Three hidden layers and a ragged batch of 4 after three of 32.
#[test]
fn three_hidden_layers_are_bit_stable() {
    check(
        &[4, 16, 8, 4, 1],
        100,
        &DeviceProfile::gpu(),
        TrainConfig {
            epochs: 4,
            batch_size: 32,
            learning_rate: 0.2,
        },
        &Golden {
            model: 0xc065_12ca_2d0a_1903,
            losses: &[
                0x3fe6_4c9b_4660_8e1a,
                0x3fe5_c5bd_f250_f741,
                0x3fe5_5d11_0232_79c3,
                0x3fe4_cab3_b723_66fb,
            ],
            events: 177,
            ledger: 0xa5e2_3810_2391_d8da,
        },
    );
}

/// The shape polybench's `sql_mlp` ops train, on the CPU cycle model.
#[test]
fn shallow_mlp_is_bit_stable() {
    check(
        &[2, 16, 1],
        1_316,
        &DeviceProfile::cpu(),
        TrainConfig {
            epochs: 5,
            batch_size: 64,
            learning_rate: 0.3,
        },
        &Golden {
            model: 0x97ba_ed57_b109_dc04,
            losses: &[
                0x3fdf_2c61_95e3_29b4,
                0x3fd2_d8a7_2b33_d509,
                0x3fcb_b4c0_8acd_98b4,
                0x3fc6_5072_8e6f_5dfb,
                0x3fc2_f4f8_5c6a_44af,
            ],
            events: 526,
            ledger: 0x6576_0a41_8734_6528,
        },
    );
}

/// The Fig. 2 shape on saturating data: the `[8, 64, 32, 1]` model of
/// the deep golden, its features scaled by 1 000 and every label `0`.
/// The first epoch moves the model; every later one maps it back to
/// itself, bit for bit, as Fig. 2's training does, so 19 of the 20
/// epochs are billed without changing anything. Constants captured at
/// the commit before `Mlp::train` stopped computing such epochs, when
/// every epoch still ran in full.
#[test]
fn saturated_training_bills_every_epoch_of_its_fixed_point() {
    /// The loss of every epoch after the first: the BCE's `−1e-12`.
    const SATURATED: u64 = 0xbd71_97ff_ffff_f651;
    let threshold = Dataset::synthetic_threshold(1_316, 8, 17);
    let scaled = threshold
        .features()
        .as_slice()
        .iter()
        .map(|v| v * 1e3)
        .collect();
    let data = Dataset::new(
        Matrix::from_vec(1_316, 8, scaled).expect("1 316 × 8"),
        vec![0.0; 1_316],
    )
    .expect("one label per row");
    check_on(
        &[8, 64, 32, 1],
        &data,
        &DeviceProfile::tpu(),
        TrainConfig {
            epochs: 20,
            batch_size: 128,
            learning_rate: 0.3,
        },
        &Golden {
            model: 0x5157_949a_5e8c_0a53,
            losses: &[
                0x4003_9fd2_6ff9_2c19,
                SATURATED,
                SATURATED,
                SATURATED,
                SATURATED,
                SATURATED,
                SATURATED,
                SATURATED,
                SATURATED,
                SATURATED,
                SATURATED,
                SATURATED,
                SATURATED,
                SATURATED,
                SATURATED,
                SATURATED,
                SATURATED,
                SATURATED,
                SATURATED,
                SATURATED,
            ],
            events: 1_761,
            ledger: 0x9d22_2ed7_f2d4_da0a,
        },
    );
}

/// The paper's Fig. 2 question on polybench's `hetero_ml` deployment:
/// the trained model, both simulated totals and the ledger's event list
/// are the parent's — every GEMM charge keeps its batch's shape, event
/// for event, not only in the totals (ledger constants captured at
/// PR 25's parent).
#[test]
fn fig2_question_trains_the_same_model_at_the_same_simulated_cost() {
    let system = Polystore::from_deployment(datagen::clinical(&ClinicalConfig {
        patients: 2_000,
        vitals_per_patient: 16,
        seed: 2019,
    }))
    .accelerators(AcceleratorFleet::workstation())
    .opt_level(OptLevel::L3)
    .build()
    .expect("valid config");
    let report = system
        .run_nlq("Will patients have a long stay at the hospital or short when they exit the ICU?")
        .expect("nlq compiles and runs");
    let model = report.execution.outputs[0]
        .try_model()
        .expect("model output");
    let (events, ledger_fnv) = ledger_digest(system.ledger());
    assert_eq!(
        (
            model_digest(model),
            report.makespan().to_bits(),
            report.costs.energy_j.to_bits(),
            events,
            ledger_fnv,
        ),
        (
            0xe43c_2dcc_038c_0d23,
            0x3f64_048b_2b33_6027,
            0x3fc6_e660_b3a5_2110,
            1_773,
            0xe085_0ca9_8f37_9759,
        ),
        "got model {:#018x}, makespan bits {:#018x}, energy bits {:#018x}, {events} events, ledger {ledger_fnv:#018x}",
        model_digest(model),
        report.makespan().to_bits(),
        report.costs.energy_j.to_bits(),
    );
}
