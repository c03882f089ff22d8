//! Posting a cost event allocates nothing per event. A component name
//! is borrowed when it is a literal, so cloning a prebuilt event is a
//! copy: posting N such events costs the log's one reservation, however
//! large N is, and a training's billing allocates the same whatever the
//! number of steps it bills. Held here by counting heap allocations; an
//! owned `String` name allocates once per event posted, and fails.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pspp_accel::{CostEvent, CostLedger, DeviceKind, DeviceProfile, EventKind, SimDuration};
use pspp_mlengine::{Dataset, Mlp, TrainConfig};

/// The system allocator, counting the fresh allocations each thread
/// makes (a vector growing in place or moving is not one). The test
/// harness runs each test on a thread of its own, so one test's count is
/// its own.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn counted() {
    // Past the thread's end the count is gone; nothing reads it then.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the count is
// a thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted();
        // SAFETY: the caller's guarantees for `alloc` are passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        counted();
        // SAFETY: the caller's guarantees for `alloc_zeroed` are passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's guarantees for `realloc` are passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's guarantees for `dealloc` are passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The allocations `f` makes on this thread; what it returns is dropped
/// after the count is taken.
fn allocations<T>(f: impl FnOnce() -> T) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    let made = ALLOCATIONS.with(Cell::get) - before;
    drop(out);
    made
}

/// `n` prebuilt events named by literals, cycling through the kinds a
/// training and an operator post.
fn prebuilt(n: usize) -> Vec<CostEvent> {
    let names = ["mlengine.forward", "mlengine.backward", "relstore.scan"];
    let kinds = [EventKind::Compute, EventKind::Launch, EventKind::Transfer];
    (0..n)
        .map(|i| CostEvent {
            component: names[i % names.len()].into(),
            device: DeviceKind::Cpu,
            kind: kinds[i % kinds.len()],
            bytes: i as u64,
            duration: SimDuration::from_micros(i as f64),
            energy_j: 0.5,
        })
        .collect()
}

#[test]
fn posting_prebuilt_events_allocates_the_log_alone_however_many() {
    let counts: Vec<(usize, usize)> = [10, 10_000]
        .into_iter()
        .map(|n| {
            let events = prebuilt(n);
            let ledger = CostLedger::new();
            let made = allocations(|| ledger.post_events(events.iter().cloned()));
            assert_eq!(ledger.events(), events);
            (n, made)
        })
        .collect();
    assert_eq!(
        counts[0].1, counts[1].1,
        "allocations by events posted {counts:?} grow with the events"
    );
    // The log's one reservation.
    assert_eq!(counts[0].1, 1, "{counts:?}");
}

#[test]
fn posting_literal_named_events_one_at_a_time_allocates_only_to_grow_the_log() {
    let counts: Vec<(usize, usize)> = [10, 10_000]
        .into_iter()
        .map(|n| {
            let ledger = CostLedger::new();
            let made = allocations(|| {
                for _ in 0..n {
                    ledger.post(
                        "mlengine.launch",
                        DeviceKind::Gpu,
                        EventKind::Launch,
                        0,
                        SimDuration::from_micros(1.0),
                        0.0,
                    );
                }
            });
            assert_eq!(ledger.len(), n);
            (n, made)
        })
        .collect();
    assert_eq!(
        counts[0].1, counts[1].1,
        "allocations by events posted {counts:?} grow with the events"
    );
}

#[test]
fn a_training_bills_its_steps_without_allocating_per_step() {
    let device = DeviceProfile::gpu();
    let data = Dataset::synthetic_threshold(200, 4, 11);
    // What billing adds to a training of `epochs` epochs: the training
    // with a ledger less the same training without one, so whatever the
    // steps themselves allocate cancels out.
    let billing = |epochs: usize| {
        let config = TrainConfig {
            epochs,
            batch_size: 16,
            learning_rate: 0.1,
        };
        let run = |ledger: Option<&CostLedger>| {
            let mut model = Mlp::new(&[4, 8, 1], 3).unwrap();
            allocations(|| model.train(&device, &data, &config, ledger).unwrap())
        };
        let ledger = CostLedger::new();
        let with = run(Some(&ledger));
        let without = run(None);
        // One launch, then 13 steps an epoch (the last one ragged) of 5
        // events each.
        assert_eq!(ledger.len(), 1 + epochs * 13 * 5);
        with - without
    };
    let counts: Vec<(usize, usize)> = [2, 40].into_iter().map(|e| (e, billing(e))).collect();
    assert_eq!(
        counts[0].1, counts[1].1,
        "billing allocations by epochs {counts:?} grow with the steps billed"
    );
}
