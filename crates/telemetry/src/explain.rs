//! `EXPLAIN` and `EXPLAIN ANALYZE`: planned cost, alone or next to
//! executed cost, per node.
//!
//! The optimizer prices a plan before execution ([`PlannedCosts`], produced
//! from `CostModel::place`'s `PlacementPlan`); the executor reports what
//! actually ran ([`NodeTrace`]s on the simulated clock). [`explain_analyze`]
//! joins the two into a text tree: one row per node with planned vs. executed
//! critical-path seconds, one row per (shard) task with its device pick and
//! any host fallback, one row per exchange edge with routed rows/bytes, and
//! under every cross-engine join its [`JoinSite`] — where it runs, the two
//! byte estimates compared, planned vs. executed migration. [`explain_plan`]
//! renders the plan's half alone, without running anything.

use crate::trace::NodeTrace;
use pspp_accel::SimDuration;
use pspp_common::EngineId;
use pspp_ir::{ColumnDemand, NodeId};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Where the planner runs one join whose inputs sit on different
/// engines, and what it compared to decide: each input's estimated
/// bytes scaled to the columns of it somebody reads (`kept`) — what a
/// migration of it would ship and be billed for. The input that would
/// ship more stays put and the other migrates to it.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinSite {
    /// The join.
    pub node: NodeId,
    /// The engine chosen to run it.
    pub site: EngineId,
    /// The left (probe) input's engine and estimated bytes.
    pub left: (EngineId, f64),
    /// The right (build) input's engine and estimated bytes.
    pub right: (EngineId, f64),
    /// The columns of `[left, right]` somebody reads, where they are not
    /// all of the input's: a migration ships these and is billed their
    /// share of the bytes.
    pub kept: [Option<ColumnDemand>; 2],
    /// Planned seconds migrating the inputs that are not at `site`.
    pub migration_seconds: f64,
}

impl JoinSite {
    fn describe(&self) -> String {
        // `80000B -> 16000B [pid] of 5 cols`: the input's bytes, then
        // the bytes a migration of it ships — the figure compared.
        let side = |(engine, bytes): &(EngineId, f64), kept: &Option<ColumnDemand>| {
            let kept = kept.as_ref().map_or_else(String::new, |k| {
                format!(" -> {:.0}B {k}", bytes * k.share())
            });
            format!("{engine} {bytes:.0}B{kept}")
        };
        format!(
            "site={} (left {}, right {})",
            self.site,
            side(&self.left, &self.kept[0]),
            side(&self.right, &self.kept[1])
        )
    }
}

/// The optimizer's pre-execution cost estimates, keyed for the join
/// against executed traces.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlannedCosts {
    /// Planned critical-path seconds per node.
    pub node_seconds: HashMap<NodeId, f64>,
    /// Planned end-to-end seconds.
    pub total_seconds: f64,
    /// Planned exchange seconds across all edges.
    pub exchange_seconds: f64,
    /// Planned cross-engine migration seconds (exchanges excluded).
    pub migration_seconds: f64,
    /// The site decision of every cross-engine join.
    pub join_sites: Vec<JoinSite>,
}

fn dur(seconds: f64) -> String {
    format!("{}", SimDuration::from_secs(seconds))
}

fn planned_cell(planned: Option<f64>) -> String {
    planned.map_or_else(|| "-".to_string(), dur)
}

/// Renders the plan alone (`EXPLAIN`): planned seconds per node in id
/// order, each cross-engine join's site decision under it, and the
/// plan's migration, exchange and end-to-end totals.
pub fn explain_plan(planned: &PlannedCosts) -> String {
    let mut nodes: Vec<(&NodeId, &f64)> = planned.node_seconds.iter().collect();
    nodes.sort_by_key(|(id, _)| **id);
    let mut rows: Vec<(String, String)> = Vec::new();
    for (id, &seconds) in nodes {
        rows.push((id.to_string(), dur(seconds)));
        if let Some(site) = planned.join_sites.iter().find(|s| s.node == *id) {
            rows.push((
                format!("  {} migration", site.describe()),
                dur(site.migration_seconds),
            ));
        }
    }
    rows.push(("migration".to_string(), dur(planned.migration_seconds)));
    rows.push(("exchange".to_string(), dur(planned.exchange_seconds)));
    rows.push(("total".to_string(), dur(planned.total_seconds)));
    let name_w = rows.iter().map(|(n, _)| n.len()).max().unwrap_or(0).max(4);
    let mut out = String::new();
    let _ = writeln!(out, "{:<name_w$}  {:>10}", "node", "planned");
    for (name, planned) in &rows {
        let _ = writeln!(out, "{name:<name_w$}  {planned:>10}");
    }
    out
}

/// Renders the planned-vs-executed tree. `traces` must be in executor
/// merge order; `planned` is optional (plain `L0`/`L1` runs have no
/// placement), `makespan` is the report's effective makespan.
pub fn explain_analyze(
    traces: &[NodeTrace],
    planned: Option<&PlannedCosts>,
    makespan: f64,
) -> String {
    let mut rows: Vec<(String, String, String)> = Vec::new();
    for trace in traces {
        let planned_node = planned.and_then(|p| p.node_seconds.get(&trace.id).copied());
        rows.push((
            format!(
                "{}@{} stage={} rows={}",
                trace.op, trace.id, trace.stage, trace.rows
            ),
            planned_cell(planned_node),
            dur(trace.critical_seconds),
        ));
        if let Some(site) = planned.and_then(|p| p.join_sites.iter().find(|s| s.node == trace.id)) {
            rows.push((
                format!("  {} migration", site.describe()),
                dur(site.migration_seconds),
                dur(trace.migration_seconds),
            ));
        }
        for task in &trace.tasks {
            let fallback = if task.fallback() {
                format!(" (planned {:?}, host fallback)", task.planned)
            } else {
                String::new()
            };
            let fused = task.fused.map_or_else(String::new, |tag| {
                format!(" fused=#{}[{}/{}]", tag.chain, tag.pos + 1, tag.len)
            });
            let queue = if task.queue_seconds > 0.0 {
                format!(" queue={}", dur(task.queue_seconds))
            } else {
                String::new()
            };
            rows.push((
                format!(
                    "  {}[{}] device={:?}{}{}{} rows={}",
                    task.shard, task.slot, task.device, fallback, fused, queue, task.rows
                ),
                String::new(),
                dur(task.critical_seconds),
            ));
        }
        for exchange in &trace.exchanges {
            rows.push((
                format!(
                    "  exchange.{} rows={} bytes={} device={:?}",
                    exchange.kind, exchange.rows, exchange.bytes, exchange.device
                ),
                String::new(),
                dur(exchange.seconds),
            ));
        }
    }
    let fallbacks: usize = traces.iter().map(NodeTrace::fallbacks).sum();
    let exchange_rows: usize = traces.iter().map(NodeTrace::exchange_rows).sum();
    rows.push((
        format!("makespan (fallbacks={fallbacks}, exchange_rows={exchange_rows})"),
        planned
            .map(|p| dur(p.total_seconds))
            .unwrap_or_else(|| "-".to_string()),
        dur(makespan),
    ));

    let name_w = rows
        .iter()
        .map(|(n, _, _)| n.len())
        .max()
        .unwrap_or(0)
        .max(4);
    let planned_w = rows
        .iter()
        .map(|(_, p, _)| p.len())
        .max()
        .unwrap_or(0)
        .max("planned".len());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<name_w$}  {:>planned_w$}  {:>10}",
        "node", "planned", "actual"
    );
    for (name, planned, actual) in &rows {
        let _ = writeln!(out, "{name:<name_w$}  {planned:>planned_w$}  {actual:>10}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{ExchangeTrace, TaskTrace};
    use pspp_common::{DeviceKind, EngineId, ShardId};

    fn traces() -> Vec<NodeTrace> {
        vec![NodeTrace {
            id: NodeId(3),
            op: "hash_join".to_string(),
            stage: 1,
            rows: 120,
            exec_seconds: 4e-4,
            migration_seconds: 2e-4,
            critical_seconds: 6e-4,
            tasks: vec![TaskTrace {
                shard: ShardId(0),
                slot: 0,
                planned: DeviceKind::Gpu,
                device: DeviceKind::Cpu,
                rows: 120,
                exec_seconds: 4e-4,
                migration_seconds: 1e-4,
                critical_seconds: 5e-4,
                queue_seconds: 2e-5,
                fused: Some(pspp_ir::FusionTag {
                    chain: 0,
                    pos: 1,
                    len: 2,
                }),
                fused_saved_seconds: 0.0,
            }],
            exchanges: vec![ExchangeTrace {
                kind: "shuffle",
                rows: 240,
                bytes: 9_600,
                seconds: 1e-4,
                device: DeviceKind::Cpu,
            }],
        }]
    }

    #[test]
    fn joins_planned_and_actual_costs() {
        let mut planned = PlannedCosts::default();
        planned.node_seconds.insert(NodeId(3), 5.5e-4);
        planned.total_seconds = 5.5e-4;
        let text = explain_analyze(&traces(), Some(&planned), 6e-4);
        assert!(text.contains("hash_join@n3"));
        assert!(
            text.contains("550.000us"),
            "planned column rendered: {text}"
        );
        assert!(text.contains("600.000us"), "actual column rendered: {text}");
        assert!(text.contains("host fallback"));
        assert!(
            text.contains("fused=#0[2/2]"),
            "fused chain rendered: {text}"
        );
        assert!(
            text.contains("queue=20.000us"),
            "queue wait rendered: {text}"
        );
        assert!(text.contains("exchange.shuffle rows=240"));
        assert!(text.contains("exchange_rows=240"));
    }

    fn site() -> JoinSite {
        JoinSite {
            node: NodeId(3),
            site: EngineId::new("db2"),
            left: (EngineId::new("db1"), 128_000.0),
            right: (EngineId::new("db2"), 640_000.0),
            kept: [
                Some(ColumnDemand {
                    columns: ["pid".to_string()].into(),
                    of: 5,
                }),
                None,
            ],
            migration_seconds: 1.5e-4,
        }
    }

    #[test]
    fn join_site_sits_beside_the_executed_migration() {
        let planned = PlannedCosts {
            join_sites: vec![site()],
            ..Default::default()
        };
        let text = explain_analyze(&traces(), Some(&planned), 6e-4);
        let line = text
            .lines()
            .find(|l| l.contains("site=db2"))
            .expect("site row rendered");
        assert!(
            line.contains("left db1 128000B -> 25600B [pid] of 5 cols, right db2 640000B)"),
            "{line}"
        );
        assert!(line.contains("150.000us"), "planned migration: {line}");
        assert!(line.contains("200.000us"), "executed migration: {line}");
    }

    #[test]
    fn explain_renders_the_plan_without_traces() {
        let mut planned = PlannedCosts {
            join_sites: vec![site()],
            migration_seconds: 1.5e-4,
            total_seconds: 7e-4,
            ..Default::default()
        };
        planned.node_seconds.insert(NodeId(3), 5.5e-4);
        planned.node_seconds.insert(NodeId(0), 1e-4);
        let text = explain_plan(&planned);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[1].starts_with("n0"), "id order: {text}");
        assert!(lines[2].starts_with("n3") && lines[2].contains("550.000us"));
        assert!(lines[3].contains("site=db2") && lines[3].contains("150.000us"));
        assert!(text.contains("total") && text.contains("700.000us"));
    }

    #[test]
    fn renders_without_planned_costs() {
        let text = explain_analyze(&traces(), None, 6e-4);
        assert!(text.contains("hash_join@n3"));
        assert!(text.lines().next().unwrap().contains("planned"));
        assert!(
            text.contains(" - "),
            "missing planned cells render as dashes"
        );
    }
}
