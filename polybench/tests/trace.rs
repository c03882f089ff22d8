//! Span bookkeeping: self time and per-op quiet costs.

use polybench::trace::{quiet_costs, quiet_total, self_times_ns, Tracer, NO_PARENT};

#[test]
fn self_time_subtracts_the_union_of_child_intervals() {
    let mut t = Tracer::new();
    let parent = t.record("service.batch", NO_PARENT, 0, 0, 0, 100);
    // Two overlapping children cover 10..50, a third sticks out past
    // the parent's end and is clipped to 90..100.
    let first = t.record("service.query", parent, 1, 0, 10, 30);
    t.record("service.query", parent, 2, 0, 20, 50);
    t.record("service.query", parent, 3, 0, 90, 120);
    // A grandchild reduces its own parent only.
    t.record("inner", first, 1, 0, 12, 20);
    let own = self_times_ns(t.spans());
    assert_eq!(own, vec![50, 12, 30, 30, 8]);
}

#[test]
fn a_span_without_children_is_all_self_time() {
    let mut t = Tracer::new();
    t.record("core.run", NO_PARENT, 0, 0, 5, 25);
    assert_eq!(self_times_ns(t.spans()), vec![20]);
}

#[test]
fn open_close_and_span_record_nested_clocks() {
    let mut t = Tracer::new();
    let root = t.open("probe", NO_PARENT, 7, 3);
    let out = t.span("frontend.compile", root, 7, 3, || 42);
    let seconds = t.close(root);
    assert_eq!(out, 42);
    let spans = t.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!((spans[1].parent, spans[1].op, spans[1].pass), (root, 7, 3));
    assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    assert!((seconds - spans[0].duration_ns() as f64 * 1e-9).abs() < 1e-12);
}

#[test]
fn quiet_cost_is_the_lower_quartile_per_name_and_op() {
    let mut t = Tracer::new();
    // Op 0 executes in 1000 ns except in one slow pass; op 1 in 3000 ns.
    for (pass, ns) in [1000, 1000, 1000, 1000, 9000].into_iter().enumerate() {
        t.record("runtime.execute", NO_PARENT, 0, pass as u32, 0, ns);
        t.record("runtime.execute", NO_PARENT, 1, pass as u32, 0, 3000);
    }
    let quiet = quiet_costs(t.spans());
    assert!((quiet[&("runtime.execute", 0)] - 1000e-9).abs() < 1e-15);
    assert!((quiet[&("runtime.execute", 1)] - 3000e-9).abs() < 1e-15);
    assert!((quiet_total(&quiet, "runtime.execute") - 4000e-9).abs() < 1e-15);
    assert_eq!(quiet_total(&quiet, "never.recorded"), 0.0);
}
