//! The paper's Fig. 3 scenario: a Snorkel-style weak-supervision loop —
//! `load_data` SQL calls interleaved with SGD steps, plus the label
//! model that fuses noisy labeling functions.
//!
//! ```text
//! cargo run --example snorkel_labeling
//! ```

use polystorepp::mlengine::{Dataset, LabelModel, LabelingFunction, Mlp, TrainConfig, Vote};
use polystorepp::prelude::*;

fn main() -> Result<()> {
    let deployment = datagen::clinical(&ClinicalConfig {
        patients: 400,
        vitals_per_patient: 8,
        seed: 5,
    });
    let system = Polystore::from_deployment(deployment)
        .accelerators(AcceleratorFleet::workstation())
        .opt_level(OptLevel::L2)
        .build()?;

    // 1. Unlabeled data in the RDBMS (Fig. 3 step 1).
    let db1 = system.registry().relational(&EngineId::new("db1"))?;
    let rows = db1.scan("admissions", &Predicate::True, None)?.rows;
    println!("loaded {} unlabeled admissions from the RDBMS", rows.len());

    // 2. Labeling functions vote on "long stay" without ground truth.
    let lfs = vec![
        LabelingFunction::new("old_age", |r: &Row| match r[1].as_i64() {
            Some(a) if a >= 75 => Vote::Positive,
            Some(a) if a < 30 => Vote::Negative,
            _ => Vote::Abstain,
        }),
        LabelingFunction::new("recent_admission", |r: &Row| match r[2].as_i64() {
            Some(d) if d > 3000 => Vote::Positive,
            _ => Vote::Abstain,
        }),
        LabelingFunction::new("short_los_hint", |r: &Row| match r[3].as_f64() {
            Some(l) if l < 3.0 => Vote::Negative,
            Some(l) if l > 7.0 => Vote::Positive,
            _ => Vote::Abstain,
        }),
    ];
    let votes = LabelModel::apply_functions(&lfs, &rows);
    let model = LabelModel::fit(&votes, 10)?;
    println!("labeling-function accuracies: {:?}", model.accuracies);

    // 3. Probabilistic labels feed mini-batch SGD (Fig. 3 step 2): each
    //    epoch re-loads training data from the DB — the load_data calls
    //    Polystore++ would accelerate.
    let probs = model.predict(&votes);
    let examples: Vec<(Vec<f64>, f64)> = rows
        .iter()
        .zip(&probs)
        .map(|(r, &p)| {
            let feats = vec![
                r[1].as_f64().unwrap_or(0.0) / 100.0,
                r[2].as_f64().unwrap_or(0.0) / 3650.0,
            ];
            (feats, f64::from(p >= 0.5))
        })
        .collect();
    let data = Dataset::from_examples(&examples)?;
    let mut mlp = Mlp::new(&[2, 8, 1], 3)?;
    let tpu = DeviceProfile::tpu();
    let losses = mlp.train(
        &tpu,
        &data,
        &TrainConfig {
            epochs: 15,
            batch_size: 32,
            learning_rate: 0.4,
        },
        Some(system.ledger()),
    )?;
    println!(
        "trained on weak labels: loss {:.4} -> {:.4} over {} epochs (GEMMs costed on the TPU model)",
        losses[0],
        losses.last().expect("nonempty"),
        losses.len()
    );
    println!(
        "simulated ML engine busy time: {}",
        system.ledger().busy_for("mlengine")
    );
    Ok(())
}
