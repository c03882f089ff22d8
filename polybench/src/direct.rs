//! Workloads that call the facade directly, one `run_*` at a time:
//! `olap_single`, `olap_sharded`, `hetero_ml`.

use std::sync::Arc;
use std::time::Instant;

use pspp_accel::AcceleratorFleet;
use pspp_common::{Error, PartitionSpec, Result, TableRef};
use pspp_core::{datagen, ClinicalConfig, Polystore, RunReport};
use pspp_optimizer::OptLevel;

use crate::oplist::Op;
use crate::probes::probe_op;
use crate::trace::{Tracer, NO_PARENT};
use crate::workload::{output_digest, run_op, Counts, ExecSums, LedgerSplit, UnitRun, Workload};

/// The data every workload runs over is the same for every `--seed`:
/// the seed draws query parameters, not rows.
pub const DATA_SEED: u64 = 2019;

/// How a direct workload's system is deployed.
#[derive(Debug, Clone, Copy)]
pub struct Deploy {
    /// Patients in the clinical deployment.
    pub patients: usize,
    /// Vital-sign points per patient.
    pub vitals: usize,
    /// Two shard replicas of the partitioned tables instead of one:
    /// `admissions` hashed on `pid`, `patients` on `name`, so the
    /// federated join has mismatched keys and shuffles both sides.
    pub sharded: bool,
    /// L3 planning over the workstation fleet (`true`), or the
    /// builder's defaults: L2, CPU only (`false`).
    pub accelerated: bool,
}

impl Deploy {
    /// datagen → `PolystoreBuilder::build`.
    ///
    /// # Errors
    ///
    /// Propagates the builder's configuration errors.
    pub fn build(&self) -> Result<Polystore> {
        let mut builder = Polystore::from_deployment(datagen::clinical(&ClinicalConfig {
            patients: self.patients,
            vitals_per_patient: self.vitals,
            seed: DATA_SEED,
        }));
        if self.sharded {
            builder = builder.shards(2).partition(
                TableRef::new("db2", "patients"),
                PartitionSpec::hash("name", 2),
            );
        }
        if self.accelerated {
            builder
                .accelerators(AcceleratorFleet::workstation())
                .opt_level(OptLevel::L3)
                .build()
        } else {
            builder.build()
        }
    }
}

/// What every later run of an op must reproduce.
#[derive(Debug, Clone, Copy)]
struct Expected {
    digest: u64,
    sim_bits: u64,
    energy_bits: u64,
}

/// A direct workload after set-up.
pub struct Direct {
    system: Arc<Polystore>,
    ops: Vec<Op>,
    expected: Vec<Expected>,
    sums: ExecSums,
    split: LedgerSplit,
    probe_passes: u32,
}

impl Direct {
    /// Builds the system and runs the op list once to warm it. The warm
    /// pass records what every later pass must reproduce; when
    /// `reference` holds digests (of the same ops on another layout),
    /// those are what the outputs are held to instead.
    ///
    /// # Errors
    ///
    /// Propagates build errors and any op's error.
    pub fn set_up(deploy: Deploy, ops: Vec<Op>, reference: Option<&[u64]>) -> Result<Direct> {
        let system = Arc::new(deploy.build()?);
        let mut expected = Vec::with_capacity(ops.len());
        for (i, op) in ops.iter().enumerate() {
            let report = run_op(&system, op)?;
            expected.push(Expected {
                digest: reference
                    .map_or_else(|| output_digest(&report.execution.outputs), |r| r[i]),
                sim_bits: report.makespan().to_bits(),
                energy_bits: report.costs.energy_j.to_bits(),
            });
        }
        Ok(Direct {
            system,
            ops,
            expected,
            sums: ExecSums::default(),
            split: LedgerSplit::default(),
            probe_passes: 0,
        })
    }

    /// Checks one report against the warm pass and folds its counters
    /// into the current pass.
    fn check(&mut self, unit: usize, seconds: f64, report: Result<RunReport>) -> UnitRun {
        let Ok(report) = report else {
            return UnitRun {
                seconds,
                failed: 1,
                ..Default::default()
            };
        };
        let want = self.expected[unit];
        let sim = report.makespan();
        let energy = report.costs.energy_j;
        let digest = output_digest(&report.execution.outputs);
        let ok = digest == want.digest
            && sim.to_bits() == want.sim_bits
            && energy.to_bits() == want.energy_bits;
        self.sums.absorb(&report);
        UnitRun {
            seconds,
            failed: u64::from(!ok),
            sim_seconds: sim,
            energy_j: energy,
            digest,
        }
    }
}

impl Workload for Direct {
    fn units(&self) -> usize {
        self.ops.len()
    }

    fn ops_per_unit(&self) -> usize {
        1
    }

    fn run_unit(&mut self, unit: usize) -> UnitRun {
        let start = Instant::now();
        let report = run_op(&self.system, &self.ops[unit]);
        let seconds = start.elapsed().as_secs_f64();
        self.check(unit, seconds, report)
    }

    fn run_unit_traced(
        &mut self,
        unit: usize,
        pass: u32,
        probe: bool,
        tracer: &mut Tracer,
    ) -> UnitRun {
        let op_id = unit as u32;
        let span = tracer.open("core.run", NO_PARENT, op_id, pass);
        let report = run_op(&self.system, &self.ops[unit]);
        let seconds = tracer.close(span);
        let mut probe_failed = 0;
        if let (true, Ok(report)) = (probe, &report) {
            if unit == 0 {
                self.probe_passes += 1;
            }
            match probe_op(&self.system, &self.ops[unit], report, op_id, pass, tracer) {
                Ok(split) => self.split.absorb(&split),
                Err(_) => probe_failed = 1,
            }
        }
        let mut run = self.check(unit, seconds, report);
        run.failed += probe_failed;
        run
    }

    fn take_counts(&mut self) -> Counts {
        let sums = std::mem::take(&mut self.sums);
        // Every op compiles, optimizes and executes: `run_*` caches nothing.
        let ops = sums.executed() as f64;
        let mut counts = vec![
            ("frontend.compile.calls", ops),
            ("optimizer.optimize.calls", ops),
        ];
        counts.extend(sums.counts());
        counts
    }

    fn loose_counts(&self) -> Counts {
        // No service in front of the facade.
        [
            "service.plan_cache.hit_rate",
            "service.plan_cache.evictions",
            "service.result_cache.hit_rate",
            "service.result_cache.evictions",
            "service.result_cache.invalidations",
            "service.admission.admitted",
            "service.admission.blocked",
            "service.admission.peak_queue",
        ]
        .map(|name| (name, 0.0))
        .to_vec()
    }

    fn ledger_split(&self) -> (LedgerSplit, u32) {
        (self.split, self.probe_passes)
    }

    fn system(&self) -> &Arc<Polystore> {
        &self.system
    }

    fn ops(&self) -> &[Op] {
        &self.ops
    }
}

/// The row-multiset digests of `ops` on `deploy`, op for op: what
/// `olap_sharded` holds its outputs to (`deploy` = `olap_single`'s).
///
/// # Errors
///
/// Propagates build errors and any op's error.
pub fn reference_digests(deploy: Deploy, ops: &[Op]) -> Result<Vec<u64>> {
    let system = deploy.build()?;
    ops.iter()
        .map(|op| Ok(output_digest(&run_op(&system, op)?.execution.outputs)))
        .collect::<Result<Vec<u64>>>()
        .map_err(|e| Error::Execution(format!("reference run: {e}")))
}
