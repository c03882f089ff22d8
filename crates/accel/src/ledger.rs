//! The simulated clock: a thread-safe ledger of cost events.
//!
//! Every engine operator, kernel launch, transfer and migration posts a
//! [`CostEvent`]. Reports aggregate the ledger in total, by event kind
//! and by component prefix. Simulated time never reads the wall clock,
//! so all numbers are reproducible bit-for-bit.
//!
//! Posting costs no allocation per event. A component name is a
//! `Cow<'static, str>`: the kernels' literal names stay borrowed, so
//! cloning a prebuilt event (a training step's event list, posted once
//! per step) is a copy and dropping it frees nothing; only a name built
//! at run time (the executor's `executor.{op}@{node}`) owns its string.
//! The per-kind totals are a fixed array, one slot per [`EventKind`],
//! so an event's accounting is an index, not a map entry.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::device::DeviceKind;

/// A span of simulated time, in seconds.
///
/// # Examples
///
/// ```
/// use pspp_accel::SimDuration;
/// let d = SimDuration::from_secs(0.0032);
/// assert_eq!(d.to_string(), "3.200ms");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimDuration(f64);

impl SimDuration {
    /// Zero duration.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// From seconds.
    pub fn from_secs(s: f64) -> Self {
        SimDuration(s)
    }

    /// From microseconds.
    pub fn from_micros(us: f64) -> Self {
        SimDuration(us * 1e-6)
    }

    /// As seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Component-wise max.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }
}

impl std::ops::Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl std::ops::AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl std::ops::Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        if s >= 1.0 {
            write!(f, "{s:.3}s")
        } else if s >= 1e-3 {
            write!(f, "{:.3}ms", s * 1e3)
        } else if s >= 1e-6 {
            write!(f, "{:.3}us", s * 1e6)
        } else {
            write!(f, "{:.1}ns", s * 1e9)
        }
    }
}

/// What kind of work a [`CostEvent`] represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EventKind {
    /// Arithmetic / operator execution.
    Compute,
    /// Bytes moved over an interconnect.
    Transfer,
    /// (De)serialization and data remodeling.
    Transform,
    /// Fabric reconfiguration.
    Reconfigure,
    /// Kernel launch / driver overhead.
    Launch,
    /// Disk or storage access.
    Storage,
}

impl EventKind {
    /// Every kind, in declaration order: `ALL[kind as usize] == kind`.
    const ALL: [EventKind; 6] = [
        EventKind::Compute,
        EventKind::Transfer,
        EventKind::Transform,
        EventKind::Reconfigure,
        EventKind::Launch,
        EventKind::Storage,
    ];
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EventKind::Compute => "compute",
            EventKind::Transfer => "transfer",
            EventKind::Transform => "transform",
            EventKind::Reconfigure => "reconfigure",
            EventKind::Launch => "launch",
            EventKind::Storage => "storage",
        };
        f.write_str(s)
    }
}

/// One unit of simulated work posted to the [`CostLedger`].
#[derive(Debug, Clone, PartialEq)]
pub struct CostEvent {
    /// Logical component posting the event (e.g. `"relstore.sort"`):
    /// borrowed for a literal name, owned for one built at run time.
    pub component: Cow<'static, str>,
    /// Device the work ran on.
    pub device: DeviceKind,
    /// Work category.
    pub kind: EventKind,
    /// Payload bytes touched or moved.
    pub bytes: u64,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Energy consumed, in joules.
    pub energy_j: f64,
}

/// Aggregated view of a set of events.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostSummary {
    /// Number of events.
    pub events: usize,
    /// Total bytes.
    pub bytes: u64,
    /// Total simulated busy time (sum over events; stages that overlap in a
    /// pipeline are accounted by the executor, not here).
    pub busy: SimDuration,
    /// Total energy in joules.
    pub energy_j: f64,
}

impl CostSummary {
    fn absorb(&mut self, e: &CostEvent) {
        self.events += 1;
        self.bytes += e.bytes;
        self.busy += e.duration;
        self.energy_j += e.energy_j;
    }
}

impl fmt::Display for CostSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} events, {} bytes, busy {}, {:.3} J",
            self.events, self.bytes, self.busy, self.energy_j
        )
    }
}

/// The ledger's shared interior: the event log plus the per-kind totals
/// maintained incrementally alongside it (slot `kind as usize`). Keeping
/// both behind one mutex is what makes the cache trustworthy — every
/// mutation path updates the log and the totals under the same lock, so
/// observers can never see them drift apart.
#[derive(Debug, Default)]
struct LedgerState {
    events: Vec<CostEvent>,
    kind_totals: [CostSummary; EventKind::ALL.len()],
}

impl LedgerState {
    fn push(&mut self, event: CostEvent) {
        self.kind_totals[event.kind as usize].absorb(&event);
        self.events.push(event);
    }

    fn rebuild_totals(&mut self) {
        self.kind_totals = Default::default();
        for e in &self.events {
            self.kind_totals[e.kind as usize].absorb(e);
        }
    }
}

/// Thread-safe simulated-cost ledger.
///
/// Cloning is cheap: clones share the same underlying event log, which is
/// how engines, the migrator and the executor all post into one account.
///
/// Per-kind totals ([`CostLedger::by_kind`]) are cached incrementally so
/// hot observers (the telemetry exporters poll them per query) don't
/// re-scan the log; `reset` and `replace_events` keep the cache consistent
/// with what [`CostLedger::post_event`] accounted.
///
/// # Examples
///
/// ```
/// use pspp_accel::{CostLedger, EventKind, SimDuration};
/// use pspp_accel::DeviceKind;
///
/// let ledger = CostLedger::new();
/// ledger.post("relstore.scan", DeviceKind::Cpu, EventKind::Compute,
///             4096, SimDuration::from_micros(12.0), 0.001);
/// assert_eq!(ledger.total().events, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CostLedger {
    state: Arc<Mutex<LedgerState>>,
}

impl CostLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        CostLedger::default()
    }

    /// The shared state, recovering from poisoning: a panicking executor
    /// worker must not wedge cost accounting for everyone else.
    fn state_guard(&self) -> MutexGuard<'_, LedgerState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Posts an event. A `&'static str` name is kept borrowed; a
    /// `String` (a name built at run time) is kept owned.
    pub fn post(
        &self,
        component: impl Into<Cow<'static, str>>,
        device: DeviceKind,
        kind: EventKind,
        bytes: u64,
        duration: SimDuration,
        energy_j: f64,
    ) {
        self.state_guard().push(CostEvent {
            component: component.into(),
            device,
            kind,
            bytes,
            duration,
            energy_j,
        });
    }

    /// Posts a prebuilt event.
    pub fn post_event(&self, event: CostEvent) {
        self.state_guard().push(event);
    }

    /// Posts prebuilt events, in order, under one lock acquisition,
    /// growing the log once by the iterator's lower size bound.
    pub fn post_events(&self, events: impl IntoIterator<Item = CostEvent>) {
        let events = events.into_iter();
        let mut state = self.state_guard();
        state.events.reserve(events.size_hint().0);
        for event in events {
            state.push(event);
        }
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.state_guard().events.len()
    }

    /// Whether the ledger is empty.
    pub fn is_empty(&self) -> bool {
        self.state_guard().events.is_empty()
    }

    /// Clears all events and the per-kind totals (used between
    /// experiment trials).
    pub fn reset(&self) {
        let mut state = self.state_guard();
        state.events.clear();
        state.kind_totals = Default::default();
    }

    /// Atomically replaces the event log with `events` (one lock
    /// acquisition, so concurrent observers never see a half-written
    /// log) and rebuilds the per-kind totals to match. How a system
    /// publishes a finished run's ledger as its own.
    pub fn replace_events(&self, events: Vec<CostEvent>) {
        let mut state = self.state_guard();
        state.events = events;
        state.rebuild_totals();
    }

    /// Snapshot of all events.
    pub fn events(&self) -> Vec<CostEvent> {
        self.state_guard().events.clone()
    }

    /// Moves every event out, leaving the ledger empty (per-kind totals
    /// included): [`CostLedger::events`] then [`CostLedger::reset`] in
    /// one lock acquisition, without a copy. How a finished run's ledger
    /// hands its events on once nobody reads it any more.
    pub fn take_events(&self) -> Vec<CostEvent> {
        let mut state = self.state_guard();
        state.kind_totals = Default::default();
        std::mem::take(&mut state.events)
    }

    /// Aggregate over all events.
    pub fn total(&self) -> CostSummary {
        let mut s = CostSummary::default();
        for e in self.state_guard().events.iter() {
            s.absorb(e);
        }
        s
    }

    /// Aggregates grouped by event kind, for the kinds that have events —
    /// served from the incrementally maintained totals, not a log scan.
    pub fn by_kind(&self) -> BTreeMap<EventKind, CostSummary> {
        let totals = self.state_guard().kind_totals;
        EventKind::ALL
            .into_iter()
            .zip(totals)
            .filter(|(_, summary)| summary.events > 0)
            .collect()
    }

    /// Sum of busy time for events whose component starts with `prefix`.
    pub fn busy_for(&self, prefix: &str) -> SimDuration {
        self.state_guard()
            .events
            .iter()
            .filter(|e| e.component.starts_with(prefix))
            .map(|e| e.duration)
            .sum()
    }

    /// Sum of busy time for the events posted after the first `mark`
    /// (a [`CostLedger::len`] read earlier), in posting order.
    pub fn busy_since(&self, mark: usize) -> SimDuration {
        let state = self.state_guard();
        state.events.iter().skip(mark).map(|e| e.duration).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn post_some(ledger: &CostLedger) {
        ledger.post(
            "relstore.scan",
            DeviceKind::Cpu,
            EventKind::Compute,
            100,
            SimDuration::from_secs(1.0),
            2.0,
        );
        ledger.post(
            "migrate.pipe",
            DeviceKind::Fpga,
            EventKind::Transfer,
            50,
            SimDuration::from_secs(0.5),
            1.0,
        );
    }

    #[test]
    fn totals_aggregate() {
        let ledger = CostLedger::new();
        post_some(&ledger);
        let t = ledger.total();
        assert_eq!(t.events, 2);
        assert_eq!(t.bytes, 150);
        assert!((t.busy.as_secs() - 1.5).abs() < 1e-12);
        assert!((t.energy_j - 3.0).abs() < 1e-12);
    }

    #[test]
    fn grouping() {
        let ledger = CostLedger::new();
        post_some(&ledger);
        assert_eq!(ledger.by_kind()[&EventKind::Transfer].bytes, 50);
    }

    #[test]
    fn clones_share_storage() {
        let ledger = CostLedger::new();
        let clone = ledger.clone();
        post_some(&clone);
        assert_eq!(ledger.len(), 2);
        ledger.reset();
        assert!(clone.is_empty());
    }

    /// Per-kind totals recomputed from scratch, for comparison against
    /// the incrementally maintained cache.
    fn recomputed_by_kind(ledger: &CostLedger) -> BTreeMap<EventKind, CostSummary> {
        let mut m: BTreeMap<EventKind, CostSummary> = BTreeMap::new();
        for e in ledger.events() {
            m.entry(e.kind).or_default().absorb(&e);
        }
        m
    }

    #[test]
    fn kind_totals_stay_consistent_across_reset_and_replace() {
        let ledger = CostLedger::new();
        post_some(&ledger);
        assert_eq!(ledger.by_kind(), recomputed_by_kind(&ledger));

        // reset must clear the totals, not just the log.
        ledger.reset();
        assert!(ledger.by_kind().is_empty());

        // post after reset accounts from zero.
        post_some(&ledger);
        assert_eq!(ledger.by_kind(), recomputed_by_kind(&ledger));
        assert_eq!(ledger.by_kind()[&EventKind::Compute].events, 1);

        // replace_events must rebuild the totals to match the new log
        // exactly — stale totals from the replaced log must not leak.
        let replacement = vec![CostEvent {
            component: "exchange.shuffle".into(),
            device: DeviceKind::Gpu,
            kind: EventKind::Transfer,
            bytes: 4096,
            duration: SimDuration::from_secs(0.25),
            energy_j: 0.5,
        }];
        ledger.replace_events(replacement);
        assert_eq!(ledger.by_kind(), recomputed_by_kind(&ledger));
        assert_eq!(ledger.by_kind().len(), 1);
        let transfer = ledger.by_kind()[&EventKind::Transfer];
        assert_eq!(transfer.events, 1);
        assert_eq!(transfer.bytes, 4096);

        // and posting on top of a replaced log extends those totals.
        post_some(&ledger);
        assert_eq!(ledger.by_kind(), recomputed_by_kind(&ledger));
        assert_eq!(ledger.by_kind()[&EventKind::Transfer].events, 2);
    }

    #[test]
    fn every_kind_has_its_own_slot_in_declaration_order() {
        for (slot, kind) in EventKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, slot);
        }
        let ledger = CostLedger::new();
        for (i, kind) in EventKind::ALL.into_iter().enumerate().rev() {
            let name = if i % 2 == 0 { "kernel" } else { "op" };
            ledger.post(
                name,
                DeviceKind::Cpu,
                kind,
                i as u64,
                SimDuration::ZERO,
                0.0,
            );
        }
        ledger.post(
            String::from("executor.scan@3"),
            DeviceKind::Cpu,
            EventKind::Storage,
            1,
            SimDuration::ZERO,
            0.0,
        );
        assert_eq!(ledger.by_kind(), recomputed_by_kind(&ledger));
        assert_eq!(ledger.by_kind().len(), EventKind::ALL.len());
        assert_eq!(ledger.by_kind()[&EventKind::Storage].bytes, 6);
        assert_eq!(ledger.events()[6].component, "executor.scan@3");
    }

    #[test]
    fn taken_events_move_out_and_posted_ones_go_in_in_order() {
        let ledger = CostLedger::new();
        post_some(&ledger);
        let want = ledger.events();
        let taken = ledger.take_events();
        assert_eq!(taken, want);
        assert!(ledger.is_empty() && ledger.by_kind().is_empty());

        let other = CostLedger::new();
        post_some(&other);
        other.post_events(taken);
        assert_eq!(other.events()[2..], want[..]);
        assert_eq!(other.by_kind(), recomputed_by_kind(&other));
    }

    #[test]
    fn busy_for_prefix() {
        let ledger = CostLedger::new();
        post_some(&ledger);
        assert!((ledger.busy_for("relstore").as_secs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn busy_since_sums_the_events_posted_after_the_mark() {
        let ledger = CostLedger::new();
        post_some(&ledger);
        let mark = ledger.len();
        assert_eq!(ledger.busy_since(mark), SimDuration::ZERO);
        post_some(&ledger);
        assert_eq!(ledger.busy_since(mark).as_secs(), 1.5);
        assert_eq!(ledger.busy_since(0).as_secs(), 3.0);
        assert_eq!(ledger.busy_since(ledger.len() + 1), SimDuration::ZERO);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(SimDuration::from_secs(2.5).to_string(), "2.500s");
        assert_eq!(SimDuration::from_secs(2.5e-3).to_string(), "2.500ms");
        assert_eq!(SimDuration::from_secs(2.5e-6).to_string(), "2.500us");
        assert_eq!(SimDuration::from_secs(2.5e-9).to_string(), "2.5ns");
    }

    #[test]
    fn duration_arithmetic() {
        let mut d = SimDuration::from_secs(1.0) + SimDuration::from_secs(2.0);
        d += SimDuration::from_secs(0.5);
        assert!((d.as_secs() - 3.5).abs() < 1e-12);
        assert_eq!(
            SimDuration::from_secs(1.0).max(SimDuration::from_secs(2.0)),
            SimDuration::from_secs(2.0)
        );
    }
}
