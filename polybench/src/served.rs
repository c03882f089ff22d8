//! Workloads that go through the query service: `serve_hot`,
//! `serve_churn`. One client pipelines a batch of tickets to the
//! service's single worker and then waits on all of them, so the worker
//! has work for the whole batch and the timing holds one thread wake-up
//! per 32 ops instead of one per op. The caller pins itself to one CPU
//! before set-up, so client and worker share it (see [`crate::pin`]).

use std::sync::Arc;
use std::time::Instant;

use pspp_common::Result;
use pspp_core::Polystore;
use pspp_service::{CacheStats, Query, QueryResponse, QueryService, ResultCacheStats, Session};

use crate::direct::Deploy;
use crate::oplist::{Op, BATCH};
use crate::probes::{probe_op, query_of, service_config};
use crate::trace::{Tracer, NO_PARENT};
use crate::workload::{output_digest, run_op, Counts, ExecSums, LedgerSplit, UnitRun, Workload};

/// Cache counters at the start of the current pass.
#[derive(Debug, Default, Clone, Copy)]
struct Baseline {
    plans: CacheStats,
    results: ResultCacheStats,
}

/// A served workload after set-up.
pub struct Served {
    system: Arc<Polystore>,
    service: QueryService,
    session: Session,
    /// The distinct texts.
    ops: Vec<Op>,
    queries: Vec<Query>,
    /// One pass: indices into `ops`, [`BATCH`] per unit.
    sequence: Vec<u32>,
    /// Ops between two epoch bumps (0 = never).
    epoch_ops: usize,
    /// Digest of the miss that first answered each text.
    expected: Vec<Option<u64>>,
    baseline: Baseline,
    /// Executions (result-cache misses) of the current pass.
    sums: ExecSums,
    split: LedgerSplit,
    probe_passes: u32,
    /// Passes since the service was built, the warm one included.
    passes: u32,
}

impl Served {
    /// datagen → build → service + session → one warm pass, which fills
    /// the caches and records, for every text, the digest of the miss
    /// that first answered it.
    ///
    /// # Errors
    ///
    /// Propagates build, service and query errors.
    pub fn set_up(
        deploy: Deploy,
        ops: Vec<Op>,
        sequence: Vec<u32>,
        epoch_ops: usize,
    ) -> Result<Served> {
        let system = Arc::new(deploy.build()?);
        let service = QueryService::new(Arc::clone(&system), service_config())?;
        let session = service.open_session();
        let queries = ops.iter().map(query_of).collect();
        let mut served = Served {
            system,
            service,
            session,
            expected: vec![None; ops.len()],
            ops,
            queries,
            sequence,
            epoch_ops,
            baseline: Baseline::default(),
            sums: ExecSums::default(),
            split: LedgerSplit::default(),
            probe_passes: 0,
            passes: 0,
        };
        for unit in 0..served.units() {
            if served.run_unit(unit).failed > 0 {
                return Err(pspp_common::Error::Execution(format!(
                    "warm pass: an op of batch {unit} failed"
                )));
            }
        }
        served.take_counts();
        Ok(served)
    }

    fn unit_ops(&self, unit: usize) -> std::ops::Range<usize> {
        unit * BATCH..(unit + 1) * BATCH
    }

    /// Submits the unit's tickets, waits on all of them, and returns
    /// the responses with the seconds that took. With a tracer, records
    /// one `service.query` span per ticket (submit → wait returned)
    /// under `parent`.
    fn pipeline(
        &self,
        unit: usize,
        mut traced: Option<(&mut Tracer, u32, u32)>,
    ) -> (f64, Vec<Result<QueryResponse>>) {
        let range = self.unit_ops(unit);
        let mut submitted_ns = Vec::new();
        let start = Instant::now();
        let tickets: Vec<_> = self.sequence[range.clone()]
            .iter()
            .map(|&text| {
                if let Some((tracer, _, _)) = traced.as_mut() {
                    submitted_ns.push(tracer.now_ns());
                }
                self.session.submit(&self.queries[text as usize])
            })
            .collect();
        let responses: Vec<Result<QueryResponse>> = tickets
            .into_iter()
            .enumerate()
            .map(|(i, ticket)| {
                let response = ticket.and_then(|t| t.wait());
                if let Some((tracer, parent, pass)) = traced.as_mut() {
                    let end = tracer.now_ns();
                    let op = self.sequence[range.start + i];
                    tracer.record("service.query", *parent, op, *pass, submitted_ns[i], end);
                }
                response
            })
            .collect();
        (start.elapsed().as_secs_f64(), responses)
    }

    /// Checks the unit's responses and folds their counters into the
    /// current pass; bumps the epoch when the unit ends an epoch.
    fn check(&mut self, unit: usize, seconds: f64, responses: &[Result<QueryResponse>]) -> UnitRun {
        let mut run = UnitRun {
            seconds,
            ..Default::default()
        };
        let range = self.unit_ops(unit);
        for (response, &text) in responses.iter().zip(&self.sequence[range.clone()]) {
            let Ok(response) = response else {
                run.failed += 1;
                continue;
            };
            // A hit must return what the miss that filled it returned.
            let digest = output_digest(&response.report.execution.outputs);
            let want = self.expected[text as usize].get_or_insert(digest);
            if *want != digest {
                run.failed += 1;
            }
            run.digest = run.digest.wrapping_add(digest);
            run.sim_seconds += response.service_seconds;
            run.energy_j += response.report.costs.energy_j;
            if !response.result_cache_hit {
                self.sums.absorb(&response.report);
            }
        }
        // Never with tickets in flight: every wait above has returned.
        if self.epoch_ops > 0 && range.end.is_multiple_of(self.epoch_ops) {
            self.system.bump_epoch();
        }
        run
    }
}

impl Workload for Served {
    fn units(&self) -> usize {
        self.sequence.len() / BATCH
    }

    fn ops_per_unit(&self) -> usize {
        BATCH
    }

    fn run_unit(&mut self, unit: usize) -> UnitRun {
        let (seconds, responses) = self.pipeline(unit, None);
        self.check(unit, seconds, &responses)
    }

    fn run_unit_traced(
        &mut self,
        unit: usize,
        pass: u32,
        probe: bool,
        tracer: &mut Tracer,
    ) -> UnitRun {
        let span = tracer.open("service.batch", NO_PARENT, unit as u32, pass);
        let (_, responses) = self.pipeline(unit, Some((&mut *tracer, span, pass)));
        let seconds = tracer.close(span);
        let mut probe_failed = 0;
        if probe {
            if unit == 0 {
                self.probe_passes += 1;
            }
            let texts = &self.sequence[self.unit_ops(unit)];
            for (response, &text) in responses.iter().zip(texts) {
                let Ok(response) = response else { continue };
                let op = &self.ops[text as usize];
                // What the facade would charge for this op without the
                // service in front of it.
                if tracer
                    .span("core.run", NO_PARENT, text, pass, || {
                        run_op(&self.system, op)
                    })
                    .is_err()
                {
                    probe_failed += 1;
                    continue;
                }
                match probe_op(&self.system, op, &response.report, text, pass, tracer) {
                    // Only an execution on the workload's path spends
                    // simulated accelerator time.
                    Ok(split) if !response.result_cache_hit => self.split.absorb(&split),
                    Ok(_) => {}
                    Err(_) => probe_failed += 1,
                }
            }
        }
        let mut run = self.check(unit, seconds, &responses);
        run.failed += probe_failed;
        run
    }

    fn take_counts(&mut self) -> Counts {
        let plans = self.service.cache_stats();
        let results = self.service.result_cache_stats();
        let before = std::mem::replace(&mut self.baseline, Baseline { plans, results });
        self.passes += 1;
        let sums = std::mem::take(&mut self.sums);
        let rate = |hits: u64, misses: u64| {
            if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            }
        };
        let plan_hits = plans.hits - before.plans.hits;
        let plan_misses = plans.misses - before.plans.misses;
        let result_hits = results.hits - before.results.hits;
        let result_misses = results.misses - before.results.misses;
        let mut counts = sums.counts();
        counts.extend([
            // A plan miss is what makes the service compile and optimize.
            ("frontend.compile.calls", plan_misses as f64),
            ("optimizer.optimize.calls", plan_misses as f64),
            ("service.plan_cache.hit_rate", rate(plan_hits, plan_misses)),
            (
                "service.plan_cache.evictions",
                (plans.evictions - before.plans.evictions) as f64,
            ),
            (
                "service.result_cache.hit_rate",
                rate(result_hits, result_misses),
            ),
            (
                "service.result_cache.evictions",
                (results.evictions - before.results.evictions) as f64,
            ),
            (
                "service.result_cache.invalidations",
                (results.invalidations - before.results.invalidations) as f64,
            ),
        ]);
        counts
    }

    fn loose_counts(&self) -> Counts {
        // Admission counters come with a snapshot of the whole metrics
        // registry, too dear to take every pass: read once, per pass.
        // How long the queue got depends on how the client's submits
        // and the worker's pops interleaved.
        let admission = self.service.report().admission;
        let per_pass = |total: u64| total as f64 / f64::from(self.passes.max(1));
        vec![
            ("service.admission.admitted", per_pass(admission.admitted)),
            ("service.admission.blocked", per_pass(admission.blocked)),
            ("service.admission.peak_queue", admission.peak_queue as f64),
        ]
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
