//! The per-layer table: self time per `rths_obs` phase from a traced
//! run, with concurrent worker spans split between the workers that ran
//! them rather than summed against wall time.
//!
//! Attribution sweeps the span timeline. In each stretch of time
//! between two span boundaries:
//!
//! * if any worker lane (`worker ≥ 1`, one per `rths_par` shard) has an
//!   open span, the stretch is split evenly between those lanes, each
//!   share going to the lane's innermost open span;
//! * otherwise it goes to the innermost open span of the orchestrating
//!   thread (`worker 0`);
//! * a stretch with no open span is not attributed (it is time the
//!   engines spend outside every phase).
//!
//! `par_dispatch` spans are transparent: a region is timed as a whole
//! (`par.dispatch_ms`, `par.wait_ms`) but its stretches go to the phase
//! that opened it, so parallel phases are charged to their own layer.
//! The `epoch` phase only wraps the others; its self time is the part of
//! an epoch no leaf phase covers.

use std::collections::BTreeMap;

use rths_obs::{Counter, Phase, SpanRecord, TraceReport};

/// The per-layer metric each phase's self time is reported as.
pub(crate) fn phase_metric(phase: Phase) -> Option<&'static str> {
    Some(match phase {
        Phase::HelperDynamics => "sim.helper_dynamics_ms",
        Phase::Churn => "sim.churn_ms",
        Phase::Choose => "sim.choose_ms",
        Phase::RateAlloc => "sim.rate_alloc_ms",
        Phase::Observe => "sim.observe_self_ms",
        Phase::SlabDecay => "core.slab_decay_ms",
        Phase::SlabObserve => "core.slab_observe_ms",
        Phase::RegretFold => "sim.regret_fold_ms",
        Phase::Impairment => "sim.impairment_ms",
        Phase::Settle => "sim.settle_ms",
        Phase::Metrics => "sim.metrics_ms",
        Phase::MailboxSort => "reactor.mailbox_sort_ms",
        Phase::MailboxDeliver => "reactor.mailbox_deliver_ms",
        Phase::MailboxDrain => "reactor.mailbox_drain_ms",
        Phase::TimerFlush => "reactor.timer_flush_ms",
        Phase::Epoch | Phase::ParDispatch => return None,
    })
}

/// Self time (ns) per phase, by the sweep described in the module docs.
pub fn self_time_ns(spans: &[SpanRecord]) -> [f64; Phase::COUNT] {
    let mut out = [0.0; Phase::COUNT];
    let attributed: Vec<&SpanRecord> =
        spans.iter().filter(|s| s.phase != Phase::ParDispatch && s.dur_ns > 0).collect();
    // (time, is_start, span index): ends sort before starts at a tie, so
    // back-to-back spans never look nested.
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(attributed.len() * 2);
    for (i, s) in attributed.iter().enumerate() {
        events.push((s.start_ns, true, i));
        events.push((s.start_ns + s.dur_ns, false, i));
    }
    events.sort_unstable();
    // Open spans per lane, in start order (innermost last).
    let mut open: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    let mut prev = events.first().map_or(0, |e| e.0);
    for &(t, is_start, i) in &events {
        let len = (t - prev) as f64;
        if len > 0.0 {
            let workers: Vec<usize> = open
                .iter()
                .filter(|(&lane, v)| lane > 0 && !v.is_empty())
                .map(|(_, v)| v[v.len() - 1])
                .collect();
            if !workers.is_empty() {
                let share = len / workers.len() as f64;
                for j in workers {
                    out[attributed[j].phase.index()] += share;
                }
            } else if let Some(&j) = open.get(&0).and_then(|v| v.last()) {
                out[attributed[j].phase.index()] += len;
            }
        }
        prev = t;
        let lane = open.entry(attributed[i].worker).or_default();
        if is_start {
            lane.push(i);
        } else if let Some(pos) = lane.iter().rposition(|&k| k == i) {
            lane.remove(pos);
        }
    }
    out
}

/// `rths_par` region figures: (total region wall ns, total wait ns,
/// region count). A region's wait is its wall time minus the mean busy
/// time of the workers that recorded spans inside it; regions without
/// worker spans add wall time but no wait.
pub fn par_regions(spans: &[SpanRecord]) -> (f64, f64, usize) {
    let mut wall = 0.0;
    let mut wait = 0.0;
    let mut regions = 0;
    for r in spans.iter().filter(|s| s.phase == Phase::ParDispatch) {
        let end = r.start_ns + r.dur_ns;
        let mut busy: BTreeMap<u32, u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| {
            s.worker > 0 && s.start_ns >= r.start_ns && s.start_ns + s.dur_ns <= end
        }) {
            *busy.entry(s.worker).or_default() += s.dur_ns;
        }
        regions += 1;
        wall += r.dur_ns as f64;
        if !busy.is_empty() {
            let mean_busy = busy.values().sum::<u64>() as f64 / busy.len() as f64;
            wait += (r.dur_ns as f64 - mean_busy).max(0.0);
        }
    }
    (wall, wait, regions)
}

/// The per-layer rows one traced sample yields, per epoch unless the
/// name says otherwise. `epoch_wall_ms` is the wall time of the epoch
/// calls the benchmark made (from its own call spans).
pub fn layer_rows(report: &TraceReport, epochs: u64, epoch_wall_ms: f64) -> Vec<(String, f64)> {
    let per = epochs.max(1) as f64;
    let selft = self_time_ns(&report.spans);
    let mut rows = Vec::new();
    let mut covered_ns = 0.0;
    for phase in Phase::ALL {
        if let Some(name) = phase_metric(phase) {
            covered_ns += selft[phase.index()];
            rows.push((name.to_string(), selft[phase.index()] / 1e6 / per));
        }
    }
    let (wall, wait, regions) = par_regions(&report.spans);
    rows.push(("par.dispatch_ms".into(), wall / 1e6 / per));
    rows.push(("par.wait_ms".into(), wait / 1e6 / per));
    rows.push(("par.regions".into(), regions as f64 / per));
    rows.push((
        "sim.stretch_folds".into(),
        report.counters[Counter::StretchFolds.index()] as f64 / per,
    ));
    rows.push((
        "core.slab_columns_touched".into(),
        report.counters[Counter::SlabColumnsTouched.index()] as f64 / per,
    ));
    let coverage = if epoch_wall_ms > 0.0 { covered_ns / 1e6 / epoch_wall_ms } else { 0.0 };
    rows.push(("obs.leaf_coverage".into(), coverage));
    rows.push((
        "obs.unattributed_ms".into(),
        (epoch_wall_ms - covered_ns / 1e6).max(0.0) / per,
    ));
    rows
}
