//! The row kernels fill their output in place: one slab for every row,
//! written a column at a time, with no column staged on its own. Held
//! here by counting heap allocations: a numeric projection, a hash
//! join's emit and a group-by allocate a number of times that does not
//! grow with the output's width W beyond the one name each output
//! column has in the output schema (and a projection's count does not
//! grow with its row count N either). A kernel that stages a column in
//! a vector of its own allocates once more per column, and fails.
//!
//! A table stores a row as its image's entries alone, a string in its
//! column's one buffer: an insert allocates nothing per row.
//!
//! A hash join that reads a table's snapshot whole, or a shuffle's bucket
//! of whole routed destinations of several snapshots, probes the key
//! index each snapshot keeps: once they are built, the bytes a join
//! allocates do not grow with the indexed tables' rows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pspp_common::{row, DataType, Predicate, Row, Schema, Value};
use pspp_relstore::ops::{self, AggregateSpec, JoinKind, Selected};
use pspp_relstore::{RelationalStore, Selection, Table};

/// The system allocator, counting the fresh allocations each thread
/// makes (a vector growing in place or moving is not one) and the bytes
/// it asks for (a growth, by what it adds). The test harness runs each
/// test on a thread of its own, so one test's count is its own.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn counted(bytes: usize) {
    // Past the thread's end the count is gone; nothing reads it then.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    grown(bytes);
}

fn grown(bytes: usize) {
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the count is
// a thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted(layout.size());
        // SAFETY: the caller's guarantees for `alloc` are passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        counted(layout.size());
        // SAFETY: the caller's guarantees for `alloc_zeroed` are passed on.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grown(new_size.saturating_sub(layout.size()));
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

/// The bytes `f` asks the allocator for on this thread; what it returns
/// is dropped after the count is taken.
fn allocated_bytes<T>(f: impl FnOnce() -> T) -> usize {
    let before = BYTES.with(Cell::get);
    let out = f();
    let made = BYTES.with(Cell::get) - before;
    drop(out);
    made
}

/// A store with table `t(c0 … c7)` of `rows` `Int` rows (every seventh
/// value NULL), and a scan of `t` keeping every other row.
fn scanned(rows: i64) -> (Schema, RelationalStore, Selection) {
    let names: Vec<String> = (0..8).map(|c| format!("c{c}")).collect();
    let schema = Schema::new(names.iter().map(|n| (n.as_str(), DataType::Int)).collect());
    let mut store = RelationalStore::new("db");
    store.create_table("t", schema.clone()).unwrap();
    let row = |r: i64| {
        let value = |c: i64| match (r * 8 + c) % 7 {
            0 => Value::Null,
            _ => Value::Int(r % 13 + c),
        };
        (0..8).map(value).collect::<Row>()
    };
    store.insert("t", (0..rows).map(row).collect()).unwrap();
    let (selection, _) = store.scan_kept("t", &Predicate::True, None, None).unwrap();
    let positions: Vec<u32> = selection.positions().iter().copied().step_by(2).collect();
    let selection = selection.with_positions(positions).unwrap();
    (schema, store, selection)
}

/// Asserts that `count(w)` less `w + extra` — an output of `w + extra`
/// columns, each with one name — is the same at every width `w` of
/// `widths`.
fn flat_in_width(
    kernel: &str,
    widths: &[usize],
    extra: usize,
    mut count: impl FnMut(usize) -> usize,
) {
    let counts: Vec<(usize, usize)> = widths.iter().map(|&w| (w, count(w))).collect();
    let beyond_names: Vec<usize> = counts.iter().map(|&(w, n)| n - (w + extra)).collect();
    assert!(
        beyond_names.windows(2).all(|pair| pair[0] == pair[1]),
        "{kernel}: allocations by width {counts:?} grow beyond one name per output column"
    );
}

#[test]
fn a_numeric_projection_allocates_the_same_at_every_width_and_length() {
    for rows in [64, 1024] {
        let (schema, _store, selection) = scanned(rows);
        let names = ["c3", "c0", "c7", "c1", "c5", "c2", "c6", "c4"];
        flat_in_width("project_at", &[1, 2, 4, 8], 0, |w| {
            let out = ops::project_at(&schema, selection.selected(), &names[..w]).unwrap();
            assert_eq!(out.1.len(), selection.len());
            allocations(|| ops::project_at(&schema, selection.selected(), &names[..w]))
        });
    }
    let at = |rows| {
        let (schema, _store, selection) = scanned(rows);
        allocations(|| ops::project_at(&schema, selection.selected(), &["c2", "c5", "c1"]))
    };
    assert_eq!(at(64), at(1024), "project_at allocates per row");
}

#[test]
fn a_hash_join_emit_allocates_the_same_at_every_width() {
    let (schema, _store, selection) = scanned(512);
    let (right_schema, _right_store, right) = scanned(96);
    let names: Vec<String> = ["c1", "c2", "c3", "c4", "c5", "c6", "c7", "c0_r"]
        .map(String::from)
        .to_vec();
    for kind in [JoinKind::Inner, JoinKind::LeftOuter] {
        flat_in_width("hash_join_with", &[1, 2, 4, 8], 0, |w| {
            let join = || {
                let (left, right) = (selection.selected(), right.selected());
                let (c0, demand) = ("c0", Some(&names[..w]));
                ops::hash_join_with(
                    &schema,
                    left,
                    &right_schema,
                    right,
                    c0,
                    c0,
                    kind,
                    demand,
                    |_| {},
                )
                .unwrap()
            };
            assert!(!join().1.is_empty());
            allocations(join)
        });
    }
}

#[test]
fn a_group_by_allocates_the_same_at_every_key_count() {
    let (schema, _store, selection) = scanned(1024);
    let keys = ["c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7"];
    let aggs = [AggregateSpec::count("n")];
    // Two keys and more take the same generic grouping; one key, the
    // typed one.
    flat_in_width("group_by_at", &[2, 3, 5, 8], 1, |w| {
        let group = || ops::group_by_at(&schema, selection.selected(), &keys[..w], &aggs);
        assert!(group().unwrap().1.len() > 1);
        allocations(group)
    });
}

#[test]
fn an_insert_allocates_nothing_per_row() {
    // `(Int, Str, Str)` rows, as `patients` holds them.
    let inserted = |rows: i64| {
        let schema = Schema::new(vec![
            ("pid", DataType::Int),
            ("name", DataType::Str),
            ("gender", DataType::Str),
        ]);
        let mut table = Table::new("t", schema);
        let rows: Vec<Row> = (0..rows)
            .map(|r| {
                row![
                    r,
                    format!("patient_{r}"),
                    if r % 2 == 0 { "f" } else { "m" }
                ]
            })
            .collect();
        let made = allocations(|| {
            for row in rows {
                table.insert(row).unwrap();
            }
        });
        assert_eq!(table.len(), table.image().widths().len());
        made
    };
    // The image's vectors grow by doubling, in place or moved: only the
    // first allocation of each is counted, whatever the row count.
    let (few, many) = (inserted(64), inserted(1024));
    assert!(
        many <= few + 4,
        "Table::insert allocates per row: {few} allocations for 64 rows, {many} for 1024"
    );
}

#[test]
fn a_join_over_a_kept_key_index_allocates_the_same_however_long_the_table() {
    // `t(k, v)` holding keys `0..rows` once each, read whole, joined
    // with the same 64 probe rows, the even ones of which match.
    let second_join = |rows: i64| {
        let schema = Schema::new(vec![("k", DataType::Int), ("v", DataType::Int)]);
        let mut store = RelationalStore::new("db");
        store.create_table("t", schema.clone()).unwrap();
        store
            .insert("t", (0..rows).map(|k| row![k, k * 3]).collect())
            .unwrap();
        let (whole, _) = store.scan_kept("t", &Predicate::True, None, None).unwrap();
        let probe_schema = Schema::new(vec![("p", DataType::Int)]);
        let key = |i: i64| if i % 2 == 0 { i * 15 } else { 50_000 + i };
        let probe: Vec<Row> = (0..64).map(|i| row![key(i)]).collect();
        let join = || {
            let probe = Selected::all(&probe).unwrap();
            (ops::hash_join_with(
                &probe_schema,
                probe,
                &schema,
                whole.selected(),
                "p",
                "k",
                JoinKind::Inner,
                None,
                |_| {},
            ))
            .unwrap()
        };
        let first = allocated_bytes(join);
        assert!(store.table("t").unwrap().image().has_key_index(0));
        let (second, matched) = (allocated_bytes(join), join().1.len());
        assert!(
            second < first,
            "the second join builds nothing: {second} bytes, {first} before"
        );
        (second, matched)
    };
    let (few, many) = (second_join(1_000), second_join(10_000));
    assert_eq!(few.1, 32, "the even probe rows match at either length");
    assert_eq!(
        few, many,
        "a join over the kept index allocates by the table's rows: {few:?} at 1 000, {many:?} at 10 000"
    );
}

#[test]
fn a_bucket_join_over_kept_layouts_allocates_the_same_however_long_the_table() {
    // `t(k, v)` stored as two shards, even keys on one and odd on the
    // other, `0..rows` once each; each shard's scan routed on `k` over
    // two destinations and split, and destination 0's bucket — its rows
    // of both shards, appended — joined with the same 64 probe rows.
    let second_join = |rows: i64| {
        let schema = Schema::new(vec![("k", DataType::Int), ("v", DataType::Int)]);
        let shards: Vec<RelationalStore> = (0..2)
            .map(|shard| {
                let mut store = RelationalStore::new("db");
                store.create_table("t", schema.clone()).unwrap();
                let keys = (0..rows).filter(|k| k % 2 == shard);
                store
                    .insert("t", keys.map(|k| row![k, k * 3]).collect())
                    .unwrap();
                store
            })
            .collect();
        let bucket = (shards.iter())
            .map(|store| {
                let route = Some(("k", 2));
                let (sel, routes) = store.scan_kept("t", &Predicate::True, None, route).unwrap();
                sel.split(&routes.dests, 2).unwrap().swap_remove(0)
            })
            .reduce(|all, more| all.concat(&more).unwrap())
            .unwrap();
        assert_eq!(bucket.part_count(), 2);
        let probe_schema = Schema::new(vec![("p", DataType::Int)]);
        let key = |i: i64| if i % 2 == 0 { i * 15 } else { 50_000 + i };
        let probe: Vec<Row> = (0..64).map(|i| row![key(i)]).collect();
        let join = || {
            let probe = Selected::all(&probe).unwrap();
            (ops::hash_join_with(
                &probe_schema,
                probe,
                &schema,
                bucket.selected(),
                "p",
                "k",
                JoinKind::Inner,
                None,
                |_| {},
            ))
            .unwrap()
        };
        let first = allocated_bytes(join);
        for store in &shards {
            let image = store.table("t").unwrap().image();
            assert!(image.has_hash_layout(0, 2) && image.has_key_index(0));
        }
        let (second, matched) = (allocated_bytes(join), join().1.len());
        assert!(
            second < first,
            "the second join builds nothing: {second} bytes, {first} before"
        );
        (second, matched)
    };
    let (few, many) = (second_join(1_000), second_join(10_000));
    assert!(few.1 > 0, "some probe rows match in destination 0");
    assert_eq!(
        few, many,
        "a bucket join over kept layouts allocates by the table's rows: {few:?} at 1 000, {many:?} at 10 000"
    );
}
