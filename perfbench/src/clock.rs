//! The benchmark's clock and its own spans around public calls.

use std::time::Instant;

/// Reads the monotonic clock. Every timing in the benchmark goes through
/// here, so the one clock read the determinism lint must allow is this
/// one.
pub fn now() -> Instant {
    // rths: allow(wall-clock): the benchmark times calls into the engines; no reading reaches them
    Instant::now()
}

/// Seconds elapsed since `t`.
pub(crate) fn secs_since(t: Instant) -> f64 {
    now().duration_since(t).as_secs_f64()
}

/// One timed public call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CallSpan {
    /// The public call (e.g. `step_epoch`).
    pub name: &'static str,
    /// Epoch the call belongs to (the epoch it runs, or the epoch count
    /// for calls after the last epoch).
    pub epoch: u64,
    pub dur_ns: u64,
}

impl CallSpan {
    pub fn dur_ms(&self) -> f64 {
        self.dur_ns as f64 / 1e6
    }
}

/// Records a [`CallSpan`] around each public call a workload makes.
#[derive(Debug, Default)]
pub(crate) struct Recorder {
    pub spans: Vec<CallSpan>,
}

impl Recorder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` as the public call `name` of `epoch` and records its span.
    pub fn call<R>(&mut self, name: &'static str, epoch: u64, f: impl FnOnce() -> R) -> R {
        let t0 = now();
        let out = f();
        let dur_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.spans.push(CallSpan { name, epoch, dur_ns });
        out
    }

    /// Total milliseconds spent in calls named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(CallSpan::dur_ms).sum()
    }

    /// Durations (ms) of the calls named `name`, in call order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(CallSpan::dur_ms).collect()
    }
}
