//! L1 optimizations: semantic, engine-agnostic IR rewrites (Fig. 6).
//!
//! Rules implemented:
//!
//! 1. **Predicate pushdown** — a `Filter` directly above a `Scan` is
//!    merged into the scan's pushed-down predicate (§III-A.2's reduced
//!    data-access traffic starts here).
//! 2. **Projection pushdown** — a `Project` directly above a `Scan`
//!    becomes the scan's projection list.
//! 3. **Filter fusion** — `Filter∘Filter` chains fuse into one
//!    conjunction (operator fusion à la Weld \[19\]).
//! 4. **Join-algorithm selection** — `SortMergeJoin` is rewritten to
//!    `HashJoin` unless an input is already sorted on the join key;
//!    a `HashJoin` over two sorted inputs becomes a `SortMergeJoin`.
//! 5. **Filter pushdown through joins** — a `Filter` above an inner
//!    join is split into its conjuncts, and every conjunct whose
//!    columns all come from one join input moves below the join onto
//!    that input (rule 1 then folds it into the scan), so the join —
//!    and the migration or shuffle feeding it — sees only the rows
//!    that survive. Right-side columns the join renamed `x_r` (or
//!    `x_r2`, …) go back to `x`. Conjuncts that read both sides (a cross-side `OR`, say)
//!    stay above; a filter naming a column the join output lacks is
//!    left whole, so it fails exactly as the literal plan does. The
//!    probe side stays the left input: output rows keep their order.
//! 6. **Limit below projection** — `Project → Limit n` becomes
//!    `Limit n → Project`, so only the `n` surviving rows are
//!    projected (`ORDER BY .. LIMIT n` no longer projects every
//!    sorted row).
//! 7. **Column demand** — run once, after the fixpoint: walking from
//!    the outputs down, every node is annotated with the columns of its
//!    output that some consumer reads
//!    ([`demand`](pspp_ir::Annotations::demand), recorded when that is a
//!    strict subset). A `Project` demands its list, a `Filter` or `Sort`
//!    what its consumers demand plus the columns it names, a `Limit` and
//!    a fused forward pass their consumers' demand through, a `GroupBy`
//!    demands its keys and aggregate inputs, a join splits its
//!    consumers' demand by side and adds its two keys, and several
//!    consumers union. **Everything** is demanded — the node runs as the
//!    literal plan runs it, so every error surfaces where it did — by a
//!    program output, by a node nobody reads, by an ML or connector
//!    consumer, of a node whose schema `output_schema` cannot derive,
//!    and by a consumer naming a column the producer lacks. Nothing
//!    narrows at a scan, which keeps handing out shared row pointers;
//!    the annotation is applied where rows are rebuilt anyway: the
//!    migration codec ships a producer's demanded columns, a join builds
//!    its own. **Naming contract:** a demand names columns as the node's
//!    *unpruned* schema does — a right `age` that [`Schema::join`] calls
//!    `age_r` stays `age_r` when the left `age` was never shipped — and
//!    lists them in that schema's order. A program without a join has
//!    no such place and is left as it is.
//!
//! Fused nodes are *not* removed: they are marked
//! [`fused_into_consumer`](pspp_ir::Annotations::fused_into_consumer)
//! and forward their input unchanged, which keeps node ids stable for
//! the later passes. Rule 5 appends the filters it pushes as new nodes.

use std::collections::HashMap;
use std::rc::Rc;

use pspp_common::{Predicate, Schema, SchemaLookup};
use pspp_ir::{AggFn, ColumnDemand, NodeId, Operator, Program};

/// How much of the optimizer to run — the Fig. 6 ablation axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptLevel {
    /// No optimization: literal program, host CPU everywhere.
    None,
    /// L1 rewrites only.
    L1,
    /// L1 + cost-based placement on engines and accelerators.
    L2,
    /// L2 + pipelined stage execution.
    L3,
}

impl OptLevel {
    /// All levels, in ascending order.
    pub fn all() -> [OptLevel; 4] {
        [OptLevel::None, OptLevel::L1, OptLevel::L2, OptLevel::L3]
    }

    /// Whether L1 rewrites run at this level.
    pub fn rewrites(self) -> bool {
        self != OptLevel::None
    }

    /// Whether cost-based placement runs at this level.
    pub fn placement(self) -> bool {
        matches!(self, OptLevel::L2 | OptLevel::L3)
    }

    /// Whether stages execute pipelined at this level.
    pub fn pipelined(self) -> bool {
        self == OptLevel::L3
    }
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            OptLevel::None => "none",
            OptLevel::L1 => "L1",
            OptLevel::L2 => "L1+L2",
            OptLevel::L3 => "L1+L2+L3",
        };
        f.pad(s)
    }
}

/// Which rules fired, and how often.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RewriteReport {
    /// Predicates merged into scans.
    pub predicate_pushdowns: usize,
    /// Projections merged into scans.
    pub projection_pushdowns: usize,
    /// Filter pairs fused.
    pub filter_fusions: usize,
    /// Join algorithms switched.
    pub join_rewrites: usize,
    /// Filters split and pushed below a join.
    pub join_pushdowns: usize,
    /// Limits moved below a projection.
    pub limit_pushdowns: usize,
    /// Nodes whose consumers read a strict subset of their columns
    /// (rule 7).
    pub column_prunings: usize,
}

impl RewriteReport {
    /// Total rule applications.
    pub fn total(&self) -> usize {
        self.predicate_pushdowns
            + self.projection_pushdowns
            + self.filter_fusions
            + self.join_rewrites
            + self.join_pushdowns
            + self.limit_pushdowns
            + self.column_prunings
    }
}

/// Runs the L1 rewrite suite in place. `schemas` names the columns of
/// the stored tables, which is how a filter above a join finds the side
/// each of its columns comes from; a table it does not know keeps its
/// filters where they are.
pub fn optimize_l1(program: &mut Program, schemas: &dyn SchemaLookup) -> RewriteReport {
    let mut report = RewriteReport::default();
    // Iterate to fixpoint: pushing one filter may expose another.
    loop {
        let before = report.total();
        fuse_filter_chains(program, &mut report);
        push_filters_below_joins(program, schemas, &mut report);
        push_predicates(program, &mut report);
        push_projections(program, &mut report);
        push_limits_below_projections(program, &mut report);
        select_join_algorithms(program, &mut report);
        if report.total() == before {
            break;
        }
    }
    // Demand is a property of the rewritten program, not a rewrite of
    // it: computed once, from scratch, it never re-enters the loop.
    report.column_prunings = annotate_demand(program, schemas);
    report
}

/// Follows fused nodes down to the live producer.
pub fn resolve_fused(program: &Program, mut id: NodeId) -> NodeId {
    while program.node(id).annotations.fused_into_consumer {
        id = program.node(id).inputs[0];
    }
    id
}

fn single_consumer_map(program: &Program) -> HashMap<NodeId, usize> {
    let mut counts: HashMap<NodeId, usize> = HashMap::new();
    for n in program.nodes() {
        for &i in &n.inputs {
            *counts.entry(i).or_insert(0) += 1;
        }
    }
    counts
}

/// The nodes a rule may rewrite: not fused away, operator accepted by
/// `wanted`. Most programs have none for a given rule, which then
/// skips building its consumer map.
fn live_nodes(program: &Program, wanted: impl Fn(&Operator) -> bool) -> Vec<NodeId> {
    program
        .nodes()
        .iter()
        .filter(|n| !n.annotations.fused_into_consumer && wanted(&n.op))
        .map(|n| n.id)
        .collect()
}

/// The live producer behind `id` when its rows flow to one consumer
/// only: every hop (fused aliases included) is read once and none is a
/// program output, so changing what the producer emits changes nothing
/// else.
fn exclusive_producer(
    program: &Program,
    consumers: &HashMap<NodeId, usize>,
    mut id: NodeId,
) -> Option<NodeId> {
    loop {
        if consumers.get(&id).copied().unwrap_or(0) != 1 || program.outputs().contains(&id) {
            return None;
        }
        if !program.node(id).annotations.fused_into_consumer {
            return Some(id);
        }
        id = program.node(id).inputs[0];
    }
}

/// The columns `id` emits, when they follow from the stored tables'
/// schemas through row-shaped operators; `None` for anything else (an
/// aggregate, a connector source, an unknown table).
fn output_schema(program: &Program, schemas: &dyn SchemaLookup, id: NodeId) -> Option<Rc<Schema>> {
    derive_schema(program, schemas, id, &|input| {
        output_schema(program, schemas, input)
    })
}

/// One step of [`output_schema`]: `id`'s columns from its inputs'
/// (`input(node)`), however the caller came by those. A node that hands
/// its input's rows on shares its input's schema.
fn derive_schema(
    program: &Program,
    schemas: &dyn SchemaLookup,
    id: NodeId,
    input: &dyn Fn(NodeId) -> Option<Rc<Schema>>,
) -> Option<Rc<Schema>> {
    let node = program.node(id);
    let input = |idx: usize| input(node.inputs[idx]);
    let project = |schema: &Schema, columns: &[String]| {
        let names: Vec<&str> = columns.iter().map(String::as_str).collect();
        schema.project(&names).ok().map(Rc::new)
    };
    if node.annotations.fused_into_consumer {
        return input(0);
    }
    match &node.op {
        Operator::Scan {
            table, projection, ..
        } => {
            let schema = schemas.table_schema(table)?;
            match projection {
                Some(columns) => project(schema, columns),
                None => Some(Rc::new(schema.clone())),
            }
        }
        Operator::Filter { .. } | Operator::Sort { .. } | Operator::Limit { .. } => input(0),
        Operator::Project { columns } => project(input(0)?.as_ref(), columns),
        Operator::HashJoin { .. } | Operator::SortMergeJoin { .. } => {
            Some(Rc::new(input(0)?.join(input(1)?.as_ref())))
        }
        _ => None,
    }
}

/// What a node's consumers read of it, as a short list without
/// repeats; `None` is everything.
type Need<'a> = Option<Vec<&'a str>>;

/// `names` as a demand on a producer with `schema`, or everything when
/// the schema is unknown or a name is not in it (the consumer then
/// fails on the producer's full rows, as it does in the literal plan).
fn demand_of<'a>(names: impl IntoIterator<Item = &'a str>, schema: Option<&Schema>) -> Need<'a> {
    let schema = schema?;
    let mut demand = Vec::new();
    for name in names {
        schema.index_of(name)?;
        add_name(&mut demand, name);
    }
    Some(demand)
}

/// `name` into a list without repeats.
fn add_name<'a>(names: &mut Vec<&'a str>, name: &'a str) {
    if !names.contains(&name) {
        names.push(name);
    }
}

/// What `id` reads of each of its inputs, given what its own consumers
/// read of it (`need`) and every node's schema.
fn input_demands<'a>(
    program: &'a Program,
    id: NodeId,
    need: &Need<'a>,
    known: &'a [Option<Rc<Schema>>],
) -> Vec<Need<'a>> {
    let node = program.node(id);
    let schema = |idx: usize| known[node.inputs[idx].0].as_deref();
    // The node's own reads on top of what is read of it.
    let with = |own: Vec<&'a str>| {
        let need = need.as_ref()?;
        demand_of(need.iter().copied().chain(own), schema(0))
    };
    match &node.op {
        Operator::Project { columns } => {
            vec![demand_of(columns.iter().map(String::as_str), schema(0))]
        }
        Operator::Filter { predicate } => vec![with(predicate.columns())],
        Operator::Sort { keys } => vec![with(keys.iter().map(|k| k.column.as_str()).collect())],
        Operator::Limit { .. } => vec![with(Vec::new())],
        Operator::GroupBy { keys, aggs } => {
            let inputs = aggs.iter().filter(|a| a.func != AggFn::Count);
            let read = keys.iter().chain(inputs.map(|a| &a.column));
            vec![demand_of(read.map(String::as_str), schema(0))]
        }
        Operator::HashJoin { left_on, right_on }
        | Operator::SortMergeJoin { left_on, right_on } => {
            let (Some(need), Some(left), Some(right), Some(joined)) =
                (need, schema(0), schema(1), &known[id.0])
            else {
                return vec![None, None];
            };
            // A demanded name is one of `left ⋈ right`'s; below the
            // join a right column has its own name again.
            let mut sides = [vec![left_on.as_str()], vec![right_on.as_str()]];
            for name in need {
                match joined.index_of(name) {
                    Some(at) if at < left.arity() => sides[0].push(name),
                    Some(at) => sides[1].push(&right.fields()[at - left.arity()].name),
                    None => return vec![None, None],
                }
            }
            let [l, r] = sides;
            vec![demand_of(l, Some(left)), demand_of(r, Some(right))]
        }
        _ => vec![None; node.inputs.len()],
    }
}

/// Rule 7 (module docs): annotates every node with the columns of its
/// output some consumer reads, when that is a strict subset, and returns
/// how many nodes got one. Recomputed from scratch on every call, so a
/// second call changes nothing. A program without a join is left as it
/// is: the annotation is applied where a join builds rows and where a
/// join's input crosses engines, and nowhere else.
fn annotate_demand(program: &mut Program, schemas: &dyn SchemaLookup) -> usize {
    let is_join = |op: &Operator| {
        matches!(
            op,
            Operator::HashJoin { .. } | Operator::SortMergeJoin { .. }
        )
    };
    if !program.nodes().iter().any(|n| is_join(&n.op)) {
        return 0;
    }
    let Ok(order) = program.topo_order() else {
        return 0; // `validate` reports the cycle
    };
    let mut known: Vec<Option<Rc<Schema>>> = vec![None; program.len()];
    for &id in &order {
        known[id.0] = derive_schema(program, schemas, id, &|input| known[input.0].clone());
    }
    let demands = column_demands(program, &order, &known);
    let prunings = demands.iter().flatten().count();
    for (id, demand) in demands.into_iter().enumerate() {
        program.node_mut(NodeId(id)).annotations.demand = demand;
    }
    prunings
}

/// Every node's [`ColumnDemand`], by node id: `order` is topological,
/// `known` every node's output schema where one follows.
fn column_demands(
    program: &Program,
    order: &[NodeId],
    known: &[Option<Rc<Schema>>],
) -> Vec<Option<ColumnDemand>> {
    // What the consumers seen so far read of each node; the outer
    // `None` is "no consumer yet".
    let mut needs: Vec<Option<Need<'_>>> = vec![None; program.len()];
    for &id in program.outputs() {
        needs[id.0] = Some(None);
    }
    let mut demands = vec![None; program.len()];
    // Consumers before producers.
    for &id in order.iter().rev() {
        // A node nobody reads runs as written.
        let need = needs[id.0].take().unwrap_or(None);
        let node = program.node(id);
        let forward = node.annotations.fused_into_consumer;
        let reads = if forward {
            vec![need.clone()]
        } else {
            input_demands(program, id, &need, known)
        };
        for (&input, read) in node.inputs.iter().zip(reads) {
            match (&mut needs[input.0], read) {
                (slot @ None, read) => *slot = Some(read),
                (Some(None), _) => {}
                (slot @ Some(Some(_)), None) => *slot = Some(None),
                (Some(Some(have)), Some(more)) => {
                    more.into_iter().for_each(|name| add_name(have, name));
                }
            }
        }
        // The consumers that named `need` checked it against this very
        // schema; a forward carries no rows of its own.
        if let (Some(need), Some(schema), false) = (need, &known[id.0], forward) {
            if need.len() < schema.arity() {
                let kept = schema
                    .names()
                    .into_iter()
                    .filter(|name| need.contains(name));
                demands[id.0] = Some(ColumnDemand {
                    columns: kept.map(str::to_owned).collect(),
                    of: schema.arity(),
                });
            }
        }
    }
    demands
}

/// The join input (0 = left, 1 = right) that holds every column
/// `conjunct` reads; `None` when it reads both sides, no column at all,
/// or a right column whose own name is ambiguous on the right input.
fn conjunct_side(
    conjunct: &Predicate,
    left: &Schema,
    right: &Schema,
    joined: &Schema,
) -> Option<usize> {
    let split = left.arity();
    let positions: Vec<usize> = conjunct
        .columns()
        .iter()
        .filter_map(|c| joined.index_of(c))
        .collect();
    if positions.is_empty() {
        None
    } else if positions.iter().all(|&p| p < split) {
        Some(0)
    } else if positions
        .iter()
        .all(|&p| p >= split && right.index_of(&right.fields()[p - split].name) == Some(p - split))
    {
        Some(1)
    } else {
        None
    }
}

fn push_filters_below_joins(
    program: &mut Program,
    schemas: &dyn SchemaLookup,
    report: &mut RewriteReport,
) {
    let filters = live_nodes(program, |op| matches!(op, Operator::Filter { .. }));
    if filters.is_empty() {
        return;
    }
    let consumers = single_consumer_map(program);
    for id in filters {
        let Operator::Filter { predicate } = &program.node(id).op else {
            continue;
        };
        let Some(join) = exclusive_producer(program, &consumers, program.node(id).inputs[0]) else {
            continue; // the unfiltered join rows have another reader
        };
        if !matches!(
            program.node(join).op,
            Operator::HashJoin { .. } | Operator::SortMergeJoin { .. }
        ) {
            continue;
        }
        let sides = [program.node(join).inputs[0], program.node(join).inputs[1]];
        let (Some(left), Some(right)) = (
            output_schema(program, schemas, sides[0]),
            output_schema(program, schemas, sides[1]),
        ) else {
            continue;
        };
        let joined = left.join(&right);
        if predicate
            .columns()
            .iter()
            .any(|c| joined.index_of(c).is_none())
        {
            continue; // fails on the first joined row, pushed or not
        }
        // The join suffixes a clashing right column (`_r`, `_r2`, …);
        // below the join it has its own name again.
        let own_name = |c: &str| {
            joined.index_of(c).map_or_else(
                || c.to_string(),
                |at| right.fields()[at - left.arity()].name.clone(),
            )
        };
        // A shared input keeps its rows: its other readers never asked
        // for this filter.
        let pushable = sides.map(|s| exclusive_producer(program, &consumers, s).is_some());
        let mut above = Vec::new();
        let mut below: [Vec<Predicate>; 2] = [Vec::new(), Vec::new()];
        for conjunct in predicate.clone().into_conjuncts() {
            match conjunct_side(&conjunct, &left, &right, &joined).filter(|&side| pushable[side]) {
                Some(0) => below[0].push(conjunct),
                Some(_) => below[1].push(conjunct.rename_columns(&own_name)),
                None => above.push(conjunct),
            }
        }
        if below.iter().all(Vec::is_empty) {
            continue;
        }
        let subprogram = program.node(id).subprogram.clone();
        for (side, conjuncts) in below.into_iter().enumerate() {
            if conjuncts.is_empty() {
                continue;
            }
            let pushed = program.add_node(
                Operator::Filter {
                    predicate: Predicate::all(conjuncts),
                },
                vec![sides[side]],
                subprogram.clone(),
            );
            program.node_mut(join).inputs[side] = pushed;
        }
        if above.is_empty() {
            program.node_mut(id).annotations.fused_into_consumer = true;
        } else {
            program.node_mut(id).op = Operator::Filter {
                predicate: Predicate::all(above),
            };
        }
        report.join_pushdowns += 1;
    }
}

fn push_limits_below_projections(program: &mut Program, report: &mut RewriteReport) {
    let limits = live_nodes(program, |op| matches!(op, Operator::Limit { .. }));
    if limits.is_empty() {
        return;
    }
    let consumers = single_consumer_map(program);
    for id in limits {
        let Operator::Limit { n } = program.node(id).op else {
            continue;
        };
        let Some(project) = exclusive_producer(program, &consumers, program.node(id).inputs[0])
        else {
            continue;
        };
        let Operator::Project { columns } = program.node(project).op.clone() else {
            continue;
        };
        // A projection maps rows one to one and in order, so the first
        // `n` projected rows are the projection of the first `n` rows.
        program.node_mut(project).op = Operator::Limit { n };
        program.node_mut(id).op = Operator::Project { columns };
        report.limit_pushdowns += 1;
    }
}

fn push_predicates(program: &mut Program, report: &mut RewriteReport) {
    let consumers = single_consumer_map(program);
    let ids: Vec<NodeId> = program.nodes().iter().map(|n| n.id).collect();
    for id in ids {
        if program.node(id).annotations.fused_into_consumer {
            continue;
        }
        let Operator::Filter { predicate } = program.node(id).op.clone() else {
            continue;
        };
        let input = resolve_fused(program, program.node(id).inputs[0]);
        if consumers.get(&input).copied().unwrap_or(0) != 1 {
            continue; // shared input: pushing would change other consumers
        }
        let input_node = program.node(input).clone();
        if let Operator::Scan {
            table,
            predicate: scan_pred,
            projection,
        } = input_node.op
        {
            let merged = if scan_pred == Predicate::True {
                predicate
            } else {
                scan_pred.and(predicate)
            };
            program.node_mut(input).op = Operator::Scan {
                table,
                predicate: merged,
                projection,
            };
            program.node_mut(id).annotations.fused_into_consumer = true;
            report.predicate_pushdowns += 1;
        }
    }
}

fn push_projections(program: &mut Program, report: &mut RewriteReport) {
    let consumers = single_consumer_map(program);
    let ids: Vec<NodeId> = program.nodes().iter().map(|n| n.id).collect();
    for id in ids {
        if program.node(id).annotations.fused_into_consumer {
            continue;
        }
        let Operator::Project { columns } = program.node(id).op.clone() else {
            continue;
        };
        let input = resolve_fused(program, program.node(id).inputs[0]);
        if consumers.get(&input).copied().unwrap_or(0) != 1 {
            continue;
        }
        let input_node = program.node(input).clone();
        if let Operator::Scan {
            table,
            predicate,
            projection: None,
        } = input_node.op
        {
            // Only safe if the scan predicate references projected
            // columns — conservatively require predicate == True or all
            // referenced columns kept. We keep it simple: only push when
            // the scan has no predicate yet OR the predicate columns are
            // included (checked by the runtime anyway); conservative
            // variant: predicate True.
            if predicate == Predicate::True {
                program.node_mut(input).op = Operator::Scan {
                    table,
                    predicate,
                    projection: Some(columns),
                };
                program.node_mut(id).annotations.fused_into_consumer = true;
                report.projection_pushdowns += 1;
            }
        }
    }
}

fn fuse_filter_chains(program: &mut Program, report: &mut RewriteReport) {
    let consumers = single_consumer_map(program);
    let ids: Vec<NodeId> = program.nodes().iter().map(|n| n.id).collect();
    for id in ids {
        if program.node(id).annotations.fused_into_consumer {
            continue;
        }
        let Operator::Filter { predicate: upper } = program.node(id).op.clone() else {
            continue;
        };
        let input = resolve_fused(program, program.node(id).inputs[0]);
        if consumers.get(&input).copied().unwrap_or(0) != 1 || input == id {
            continue;
        }
        let input_node = program.node(input).clone();
        if let Operator::Filter { predicate: lower } = input_node.op {
            program.node_mut(id).op = Operator::Filter {
                predicate: lower.and(upper),
            };
            program.node_mut(input).annotations.fused_into_consumer = true;
            report.filter_fusions += 1;
        }
    }
}

fn select_join_algorithms(program: &mut Program, report: &mut RewriteReport) {
    let ids: Vec<NodeId> = program.nodes().iter().map(|n| n.id).collect();
    for id in ids {
        let node = program.node(id).clone();
        match node.op {
            Operator::SortMergeJoin { left_on, right_on } => {
                let sorted = |input: NodeId, col: &str| {
                    let input = resolve_fused(program, input);
                    matches!(
                        &program.node(input).op,
                        Operator::Sort { keys } if keys.first().is_some_and(|k| k.column == col && k.ascending)
                    )
                };
                if !sorted(node.inputs[0], &left_on) && !sorted(node.inputs[1], &right_on) {
                    program.node_mut(id).op = Operator::HashJoin { left_on, right_on };
                    report.join_rewrites += 1;
                }
            }
            Operator::HashJoin { left_on, right_on } => {
                let sorted = |input: NodeId, col: &str| {
                    let input = resolve_fused(program, input);
                    matches!(
                        &program.node(input).op,
                        Operator::Sort { keys } if keys.first().is_some_and(|k| k.column == col && k.ascending)
                    )
                };
                if sorted(node.inputs[0], &left_on) && sorted(node.inputs[1], &right_on) {
                    program.node_mut(id).op = Operator::SortMergeJoin { left_on, right_on };
                    report.join_rewrites += 1;
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pspp_common::{DataType, TableRef};
    use pspp_ir::SortSpec;

    fn scan(p: &mut Program) -> NodeId {
        p.add_source(Operator::scan(TableRef::new("db", "t")), "sql")
    }

    fn no_schemas() -> HashMap<TableRef, Schema> {
        HashMap::new()
    }

    /// `db1.l(k, a)` and `db2.r(k, b)`.
    fn two_tables() -> HashMap<TableRef, Schema> {
        let table = |engine, name, col| {
            (
                TableRef::new(engine, name),
                Schema::new(vec![("k", DataType::Int), (col, DataType::Int)]),
            )
        };
        HashMap::from([table("db1", "l", "a"), table("db2", "r", "b")])
    }

    /// `l JOIN r ON k = k`, then `WHERE predicate`; returns (program,
    /// left scan, right scan, join, filter).
    fn filtered_join(predicate: Predicate) -> (Program, [NodeId; 4]) {
        let mut p = Program::new();
        let l = p.add_source(Operator::scan(TableRef::new("db1", "l")), "sql");
        let r = p.add_source(Operator::scan(TableRef::new("db2", "r")), "sql");
        let j = p.add_node(
            Operator::HashJoin {
                left_on: "k".into(),
                right_on: "k".into(),
            },
            vec![l, r],
            "sql",
        );
        let f = p.add_node(Operator::Filter { predicate }, vec![j], "sql");
        p.mark_output(f);
        (p, [l, r, j, f])
    }

    fn scan_predicate(p: &Program, id: NodeId) -> Predicate {
        match &p.node(id).op {
            Operator::Scan { predicate, .. } => predicate.clone(),
            other => panic!("{} is not a scan", other.name()),
        }
    }

    #[test]
    fn join_filter_splits_onto_both_sides() {
        // `k_r` is the right table's `k` under the join's renaming.
        let (mut p, [l, r, j, f]) = filtered_join(
            Predicate::gt("a", 5i64)
                .and(Predicate::lt("b", 9i64))
                .and(Predicate::eq("k_r", 3i64)),
        );
        let report = optimize_l1(&mut p, &two_tables());
        assert_eq!(report.join_pushdowns, 1);
        assert_eq!(report.predicate_pushdowns, 2);
        assert_eq!(scan_predicate(&p, l), Predicate::gt("a", 5i64));
        assert_eq!(
            scan_predicate(&p, r),
            Predicate::lt("b", 9i64).and(Predicate::eq("k", 3i64))
        );
        // Nothing is left to check above the join; probe stays left.
        assert!(p.node(f).annotations.fused_into_consumer);
        assert_eq!(resolve_fused(&p, f), j);
        assert_eq!(resolve_fused(&p, p.node(j).inputs[0]), l);
        assert_eq!(resolve_fused(&p, p.node(j).inputs[1]), r);
        p.validate().unwrap();
    }

    #[test]
    fn cross_side_disjunction_stays_above_the_join() {
        let cross = Predicate::gt("a", 5i64).or(Predicate::lt("b", 9i64));
        let (mut p, [l, r, _, f]) = filtered_join(Predicate::eq("a", 1i64).and(cross.clone()));
        let report = optimize_l1(&mut p, &two_tables());
        assert_eq!(report.join_pushdowns, 1);
        assert_eq!(scan_predicate(&p, l), Predicate::eq("a", 1i64));
        assert_eq!(scan_predicate(&p, r), Predicate::True);
        assert_eq!(p.node(f).op, Operator::Filter { predicate: cross });
    }

    #[test]
    fn unresolvable_column_or_unknown_table_leaves_the_filter_whole() {
        let predicate = Predicate::eq("a", 1i64).and(Predicate::eq("zzz", 1i64));
        let (mut p, [l, .., f]) = filtered_join(predicate.clone());
        assert_eq!(optimize_l1(&mut p, &two_tables()).join_pushdowns, 0);
        assert_eq!(scan_predicate(&p, l), Predicate::True);
        assert_eq!(p.node(f).op, Operator::Filter { predicate });

        let (mut p, _) = filtered_join(Predicate::eq("a", 1i64));
        assert_eq!(optimize_l1(&mut p, &no_schemas()).join_pushdowns, 0);
    }

    #[test]
    fn shared_join_input_keeps_its_rows() {
        let (mut p, [l, r, ..]) =
            filtered_join(Predicate::eq("a", 1i64).and(Predicate::eq("b", 2i64)));
        p.mark_output(l); // the unfiltered left rows are a result too
        let report = optimize_l1(&mut p, &two_tables());
        assert_eq!(report.join_pushdowns, 1);
        assert_eq!(scan_predicate(&p, l), Predicate::True);
        assert_eq!(scan_predicate(&p, r), Predicate::eq("b", 2i64));
    }

    /// The demand annotation of `id` as `(columns, of)`.
    fn demand(p: &Program, id: NodeId) -> Option<(Vec<&str>, usize)> {
        let demand = p.node(id).annotations.demand.as_ref()?;
        Some((
            demand.columns.iter().map(String::as_str).collect(),
            demand.of,
        ))
    }

    fn project(p: &mut Program, input: NodeId, columns: &[&str]) -> NodeId {
        let columns = columns.iter().map(|c| c.to_string()).collect();
        p.add_node(Operator::Project { columns }, vec![input], "sql")
    }

    /// `p`'s nodes with no output marked yet.
    fn rerooted(p: &Program) -> Program {
        let mut q = Program::new();
        for node in p.nodes() {
            q.add_node(
                node.op.clone(),
                node.inputs.clone(),
                node.subprogram.clone(),
            );
        }
        q
    }

    /// `SELECT columns FROM l JOIN r ON k = k WHERE predicate`; returns
    /// (program, left scan, right scan, join, project).
    fn projected_join(predicate: Predicate, columns: &[&str]) -> (Program, [NodeId; 4]) {
        let (mut p, [l, r, j, f]) = filtered_join(predicate);
        let out = project(&mut p, f, columns);
        // The projection is the output, not the filter.
        let mut p = rerooted(&p);
        p.mark_output(out);
        (p, [l, r, j, out])
    }

    #[test]
    fn demand_splits_at_the_join_and_adds_its_keys() {
        // The federated-join shape: the filter goes into the left scan,
        // the projection reads one right column.
        let (mut p, [l, r, j, out]) = projected_join(Predicate::gt("a", 5i64), &["b"]);
        let report = optimize_l1(&mut p, &two_tables());
        assert_eq!(demand(&p, j), Some((vec!["b"], 4)));
        assert_eq!(demand(&p, l), Some((vec!["k"], 2)), "the key, and only it");
        assert_eq!(demand(&p, r), None, "`k` and `b` are all it has");
        assert_eq!(demand(&p, out), None, "an output");
        assert_eq!(report.column_prunings, 2);
        assert_eq!(
            report.total(),
            2 + report.join_pushdowns + report.predicate_pushdowns
        );

        // `k_r` is the join's name for the right `k`: the left ships its
        // key although nobody reads the left `k` above the join.
        let (mut p, [l, r, j, _]) = projected_join(Predicate::True, &["k_r"]);
        optimize_l1(&mut p, &two_tables());
        assert_eq!(demand(&p, j), Some((vec!["k_r"], 4)));
        assert_eq!(demand(&p, l), Some((vec!["k"], 2)));
        assert_eq!(demand(&p, r), Some((vec!["k"], 2)));

        // A filter that stays above the join adds the columns it names,
        // in the join schema's order.
        let cross = Predicate::gt("a", 5i64).or(Predicate::lt("b", 9i64));
        let (mut p, [l, r, j, _]) = projected_join(cross, &["k_r"]);
        optimize_l1(&mut p, &two_tables());
        assert_eq!(demand(&p, j), Some((vec!["a", "k_r", "b"], 4)));
        assert_eq!((demand(&p, l), demand(&p, r)), (None, None));
    }

    #[test]
    fn demand_is_idempotent_and_never_reenters_the_fixpoint() {
        let (mut p, _) = projected_join(Predicate::gt("a", 5i64), &["b"]);
        let first = optimize_l1(&mut p, &two_tables());
        let once = p.clone();
        let second = optimize_l1(&mut p, &two_tables());
        assert_eq!(p, once);
        assert_eq!(second.column_prunings, first.column_prunings);
        assert_eq!(second.total(), second.column_prunings, "nothing else fired");
    }

    #[test]
    fn several_consumers_union_and_an_output_demands_everything() {
        // The left scan feeds the join (reads `k`) and a projection of
        // its own (reads `a`): it ships both.
        let wide = HashMap::from([
            (
                TableRef::new("db1", "l"),
                Schema::new(vec![
                    ("k", DataType::Int),
                    ("a", DataType::Int),
                    ("c", DataType::Int),
                ]),
            ),
            two_tables()
                .remove_entry(&TableRef::new("db2", "r"))
                .unwrap(),
        ]);
        let (mut p, [l, _, j, _]) = projected_join(Predicate::True, &["b"]);
        let side = project(&mut p, l, &["a"]);
        let top = p.add_node(Operator::Limit { n: 3 }, vec![side], "sql");
        p.mark_output(top);
        optimize_l1(&mut p, &wide);
        assert_eq!(demand(&p, l), Some((vec!["k", "a"], 3)));
        assert_eq!(demand(&p, j), Some((vec!["b"], 5)));

        // The same scan is itself a result: every column, whoever else
        // reads less.
        p.mark_output(l);
        optimize_l1(&mut p, &wide);
        assert_eq!(demand(&p, l), None);
        // A join that is a program output is untouched, and so are its
        // inputs.
        let (mut p, [l, r, j, _]) = filtered_join(Predicate::True);
        optimize_l1(&mut p, &two_tables());
        assert_eq!(
            [demand(&p, l), demand(&p, r), demand(&p, j)],
            [None, None, None]
        );
    }

    #[test]
    fn group_by_sort_and_limit_demand_what_they_name() {
        let (mut p, [l, r, j, f]) = filtered_join(Predicate::True);
        let agg = p.add_node(
            Operator::GroupBy {
                keys: vec!["a".into()],
                aggs: vec![
                    pspp_ir::AggSpec {
                        func: AggFn::Count,
                        column: "*".into(),
                        output: "n".into(),
                    },
                    pspp_ir::AggSpec {
                        func: AggFn::Sum,
                        column: "b".into(),
                        output: "s".into(),
                    },
                ],
            },
            vec![f],
            "sql",
        );
        let mut q = rerooted(&p);
        q.mark_output(agg);
        optimize_l1(&mut q, &two_tables());
        assert_eq!(demand(&q, j), Some((vec!["a", "b"], 4)), "`*` is no column");
        assert_eq!((demand(&q, l), demand(&q, r)), (None, None));

        // ORDER BY b LIMIT 2 under SELECT a: rule 6 moves the limit
        // below the projection, and both pass the demand through.
        let (mut p, [_, _, j, f]) = filtered_join(Predicate::True);
        let sort = p.add_node(
            Operator::Sort {
                keys: vec![SortSpec {
                    column: "b".into(),
                    ascending: true,
                }],
            },
            vec![f],
            "sql",
        );
        let projected = project(&mut p, sort, &["a"]);
        let limit = p.add_node(Operator::Limit { n: 2 }, vec![projected], "sql");
        let mut q = rerooted(&p);
        q.mark_output(limit);
        assert_eq!(optimize_l1(&mut q, &two_tables()).limit_pushdowns, 1);
        assert_eq!(demand(&q, j), Some((vec!["a", "b"], 4)));
        assert_eq!(demand(&q, sort), Some((vec!["a"], 4)), "what is read of it");
        assert_eq!(demand(&q, projected), Some((vec!["a"], 4)), "now the limit");
    }

    #[test]
    fn whatever_cannot_be_checked_means_everything() {
        // An ML consumer reads every column it is handed.
        let (mut p, [l, r, j, f]) = filtered_join(Predicate::True);
        let train = p.add_node(
            Operator::KMeansCluster { k: 2, max_iters: 3 },
            vec![f],
            "ml",
        );
        let mut q = rerooted(&p);
        q.mark_output(train);
        assert_eq!(optimize_l1(&mut q, &two_tables()).column_prunings, 0);
        assert_eq!(
            [demand(&q, l), demand(&q, r), demand(&q, j)],
            [None, None, None]
        );

        // A projection of a column the join lacks fails on the join's
        // full rows, as the literal plan does; so does one over a table
        // the catalog does not know.
        let (mut p, [_, _, j, _]) = projected_join(Predicate::True, &["zzz"]);
        assert_eq!(optimize_l1(&mut p, &two_tables()).column_prunings, 0);
        assert_eq!(demand(&p, j), None);
        let (mut p, _) = projected_join(Predicate::True, &["b"]);
        assert_eq!(optimize_l1(&mut p, &no_schemas()).column_prunings, 0);

        // No join, no place to apply a demand: no annotation.
        let mut p = Program::new();
        let s = p.add_source(Operator::scan(TableRef::new("db1", "l")), "sql");
        let sort = p.add_node(
            Operator::Sort {
                keys: vec![SortSpec {
                    column: "a".into(),
                    ascending: true,
                }],
            },
            vec![s],
            "sql",
        );
        let out = project(&mut p, sort, &["k"]);
        p.mark_output(out);
        assert_eq!(optimize_l1(&mut p, &two_tables()).column_prunings, 0);
        assert_eq!(demand(&p, s), None);
    }

    #[test]
    fn a_three_way_join_is_narrowed_through_its_numbered_names() {
        // `(l ⋈ r) ⋈ r` is `k, a, k_r, b, k_r2, b_r`; `k_r2` is the
        // second `r`'s `k`, its join key.
        let (mut p, [l, r, inner, f]) = filtered_join(Predicate::True);
        let again = p.add_source(Operator::scan(TableRef::new("db2", "r")), "sql");
        let outer = p.add_node(
            Operator::HashJoin {
                left_on: "k".into(),
                right_on: "k".into(),
            },
            vec![f, again],
            "sql",
        );
        let out = project(&mut p, outer, &["a", "k_r2"]);
        let mut q = rerooted(&p);
        q.mark_output(out);
        assert!(optimize_l1(&mut q, &two_tables()).column_prunings > 0);
        assert_eq!(demand(&q, outer), Some((vec!["a", "k_r2"], 6)));
        assert_eq!(demand(&q, again), Some((vec!["k"], 2)));
        assert_eq!(demand(&q, inner), Some((vec!["k", "a"], 4)));
        assert_eq!(demand(&q, r), Some((vec!["k"], 2)));
        assert_eq!(demand(&q, l), None, "`k` and `a` are all it has");
    }

    #[test]
    fn limit_moves_below_projection() {
        let mut p = Program::new();
        let s = scan(&mut p);
        let sort = p.add_node(
            Operator::Sort {
                keys: vec![SortSpec {
                    column: "a".into(),
                    ascending: false,
                }],
            },
            vec![s],
            "sql",
        );
        let project = p.add_node(
            Operator::Project {
                columns: vec!["a".into()],
            },
            vec![sort],
            "sql",
        );
        let limit = p.add_node(Operator::Limit { n: 10 }, vec![project], "sql");
        p.mark_output(limit);
        let report = optimize_l1(&mut p, &no_schemas());
        assert_eq!(report.limit_pushdowns, 1);
        assert_eq!(p.node(project).op, Operator::Limit { n: 10 });
        assert_eq!(p.node(limit).op.name(), "project");
    }

    #[test]
    fn predicate_pushes_into_scan() {
        let mut p = Program::new();
        let s = scan(&mut p);
        let f = p.add_node(
            Operator::Filter {
                predicate: Predicate::gt("a", 5i64),
            },
            vec![s],
            "sql",
        );
        p.mark_output(f);
        let report = optimize_l1(&mut p, &no_schemas());
        assert_eq!(report.predicate_pushdowns, 1);
        assert!(p.node(f).annotations.fused_into_consumer);
        match &p.node(s).op {
            Operator::Scan { predicate, .. } => assert_eq!(*predicate, Predicate::gt("a", 5i64)),
            _ => panic!(),
        }
        assert_eq!(resolve_fused(&p, f), s);
    }

    #[test]
    fn filter_chain_fuses_then_pushes() {
        let mut p = Program::new();
        let s = scan(&mut p);
        let f1 = p.add_node(
            Operator::Filter {
                predicate: Predicate::gt("a", 5i64),
            },
            vec![s],
            "sql",
        );
        let f2 = p.add_node(
            Operator::Filter {
                predicate: Predicate::lt("a", 10i64),
            },
            vec![f1],
            "sql",
        );
        p.mark_output(f2);
        let report = optimize_l1(&mut p, &no_schemas());
        assert_eq!(report.filter_fusions, 1);
        assert_eq!(report.predicate_pushdowns, 1);
        // Both filters end up fused; the scan carries the conjunction.
        match &p.node(s).op {
            Operator::Scan { predicate, .. } => {
                assert!(matches!(predicate, Predicate::And(..)));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn projection_pushes_only_without_scan_predicate() {
        let mut p = Program::new();
        let s = scan(&mut p);
        let proj = p.add_node(
            Operator::Project {
                columns: vec!["a".into()],
            },
            vec![s],
            "sql",
        );
        p.mark_output(proj);
        let report = optimize_l1(&mut p, &no_schemas());
        assert_eq!(report.projection_pushdowns, 1);
        match &p.node(s).op {
            Operator::Scan { projection, .. } => {
                assert_eq!(projection.as_deref(), Some(&["a".to_owned()][..]));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn shared_scan_blocks_pushdown() {
        let mut p = Program::new();
        let s = scan(&mut p);
        let f1 = p.add_node(
            Operator::Filter {
                predicate: Predicate::gt("a", 5i64),
            },
            vec![s],
            "sql",
        );
        let f2 = p.add_node(
            Operator::Filter {
                predicate: Predicate::lt("a", 2i64),
            },
            vec![s],
            "sql",
        );
        p.mark_output(f1);
        p.mark_output(f2);
        let report = optimize_l1(&mut p, &no_schemas());
        assert_eq!(report.predicate_pushdowns, 0);
    }

    #[test]
    fn merge_join_on_unsorted_inputs_becomes_hash_join() {
        let mut p = Program::new();
        let a = scan(&mut p);
        let b = scan(&mut p);
        let j = p.add_node(
            Operator::SortMergeJoin {
                left_on: "k".into(),
                right_on: "k".into(),
            },
            vec![a, b],
            "sql",
        );
        p.mark_output(j);
        let report = optimize_l1(&mut p, &no_schemas());
        assert_eq!(report.join_rewrites, 1);
        assert_eq!(p.node(j).op.name(), "hash_join");
    }

    #[test]
    fn hash_join_on_sorted_inputs_becomes_merge_join() {
        let mut p = Program::new();
        let a = scan(&mut p);
        let sa = p.add_node(
            Operator::Sort {
                keys: vec![SortSpec {
                    column: "k".into(),
                    ascending: true,
                }],
            },
            vec![a],
            "sql",
        );
        let b = scan(&mut p);
        let sb = p.add_node(
            Operator::Sort {
                keys: vec![SortSpec {
                    column: "k".into(),
                    ascending: true,
                }],
            },
            vec![b],
            "sql",
        );
        let j = p.add_node(
            Operator::HashJoin {
                left_on: "k".into(),
                right_on: "k".into(),
            },
            vec![sa, sb],
            "sql",
        );
        p.mark_output(j);
        let report = optimize_l1(&mut p, &no_schemas());
        assert_eq!(report.join_rewrites, 1);
        assert_eq!(p.node(j).op.name(), "sort_merge_join");
    }

    #[test]
    fn opt_levels_ordering() {
        assert!(!OptLevel::None.rewrites());
        assert!(OptLevel::L1.rewrites() && !OptLevel::L1.placement());
        assert!(OptLevel::L2.placement() && !OptLevel::L2.pipelined());
        assert!(OptLevel::L3.pipelined());
        assert_eq!(OptLevel::L3.to_string(), "L1+L2+L3");
    }

    #[test]
    fn opt_level_display_honours_width_and_alignment() {
        assert_eq!(format!("{:<6}|", OptLevel::L1), "L1    |");
        assert_eq!(format!("{:>6}", OptLevel::None), "  none");
    }
}
