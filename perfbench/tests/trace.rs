//! Self-time attribution on synthetic span timelines.

use perfbench::trace::{par_regions, self_time_ns};
use rths_obs::{Phase, SpanRecord};

fn span(phase: Phase, worker: u32, start_ns: u64, end_ns: u64) -> SpanRecord {
    SpanRecord { phase, epoch: 0, worker, start_ns, dur_ns: end_ns - start_ns }
}

#[test]
fn nested_spans_get_their_self_time() {
    let spans = [
        span(Phase::Epoch, 0, 0, 100),
        span(Phase::Choose, 0, 10, 30),
        span(Phase::Observe, 0, 30, 90),
        span(Phase::RegretFold, 0, 30, 40),
    ];
    let t = self_time_ns(&spans);
    assert_eq!(t[Phase::Epoch.index()], 20.0);
    assert_eq!(t[Phase::Choose.index()], 20.0);
    assert_eq!(t[Phase::Observe.index()], 50.0);
    assert_eq!(t[Phase::RegretFold.index()], 10.0);
}

#[test]
fn concurrent_workers_split_wall_time() {
    // Two workers inside one parallel region: overlapping time is split
    // between them, so the phases sum to wall time, not to busy time.
    let spans = [
        span(Phase::Epoch, 0, 0, 100),
        span(Phase::Observe, 0, 10, 60),
        span(Phase::ParDispatch, 0, 15, 55),
        span(Phase::SlabDecay, 1, 20, 25),
        span(Phase::SlabObserve, 1, 25, 40),
        span(Phase::SlabObserve, 2, 20, 50),
    ];
    let t = self_time_ns(&spans);
    assert_eq!(t[Phase::SlabDecay.index()], 2.5);
    assert_eq!(t[Phase::SlabObserve.index()], 2.5 + 7.5 + 7.5 + 10.0);
    // The region itself is transparent: its uncovered time (15..20,
    // 50..55) stays with the phase that opened it.
    assert_eq!(t[Phase::ParDispatch.index()], 0.0);
    assert_eq!(t[Phase::Observe.index()], 20.0);
    assert_eq!(t[Phase::Epoch.index()], 50.0);
    assert_eq!(t.iter().sum::<f64>(), 100.0);

    let (wall, wait, regions) = par_regions(&spans);
    assert_eq!((wall, regions), (40.0, 1));
    // Worker 1 was busy 20 ns, worker 2 30 ns: mean busy 25 of 40.
    assert_eq!(wait, 15.0);
}

#[test]
fn sequential_worker_spans_run_inline() {
    // One shard run inline on the calling thread: its span is a child
    // of the enclosing orchestrator phase.
    let spans = [span(Phase::MailboxDeliver, 0, 0, 10), span(Phase::MailboxDrain, 1, 10, 90)];
    let t = self_time_ns(&spans);
    assert_eq!(t[Phase::MailboxDeliver.index()], 10.0);
    assert_eq!(t[Phase::MailboxDrain.index()], 80.0);
}
