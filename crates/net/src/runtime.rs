//! Backend selection, run configuration, and the outcome type every
//! backend returns.
//!
//! The protocol logic lives in [`crate::machines`]; the hosting
//! runtimes are [`ReactorRuntime`](crate::reactor_backend::ReactorRuntime)
//! and the multi-process reactor ([`crate::multiproc`]). [`run`]
//! dispatches a [`NetConfig`] to whichever one its [`Backend`] names.
//! With equal seeds every backend reproduces the simulator bit-for-bit;
//! see the `sim_net_equivalence` integration test.

use rths_sim::ImpairmentPlan;
use rths_sim::SimConfig;
use rths_sim::SimMetrics;

/// Which runtime hosts the actor mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The event-loop runtime
    /// ([`ReactorRuntime`](crate::reactor_backend::ReactorRuntime)):
    /// thousands of poll-driven actors per thread, bit-equivalent to the
    /// simulator. **Default.**
    #[default]
    Reactor,
    /// The multi-process reactor ([`crate::multiproc`]): the mesh
    /// sharded across OS processes over Unix-domain sockets, each
    /// hosting a contiguous partition of mailbox shards — still
    /// bit-equivalent to the in-process reactor and the simulator.
    Multiproc {
        /// Process count (≥ 1); the calling process is rank 0.
        processes: usize,
    },
}

/// Configuration of a decentralized run.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// The underlying system configuration (must be churn-free: actor
    /// population is fixed at startup).
    pub sim: SimConfig,
    /// Link-impairment plan (loss, shaping, jitter/latency) — shared
    /// with the simulator, so impaired runs stay bit-identical across
    /// every engine.
    pub impairments: ImpairmentPlan,
    /// Hosting runtime.
    pub backend: Backend,
    /// Whether peers attach their learner's internal regret estimate to
    /// every observation (the `worst_regret_estimate` series). Deriving
    /// it scans the proxy matrix's played columns per peer per epoch
    /// (`O(played · m + m)`, approaching `O(m²)` once a peer has tried
    /// most of its `m` helpers) — the same cost trade the simulator's
    /// `track_estimate` flag controls — so throughput benches disable
    /// it. **Default: on.**
    pub track_estimate: bool,
    /// Enables `rths_obs` tracing for the duration of the run (epoch
    /// spans, coordinator phase spans, message-volume counters). Tracing
    /// never feeds back into the computation, so traced runs stay
    /// bit-identical to untraced ones. **Default: off.**
    pub trace: bool,
}

impl NetConfig {
    /// Wraps a simulator configuration on the default (reactor)
    /// backend, inheriting the config's own [`SimConfig::impairment`]
    /// plan (none by default).
    ///
    /// # Panics
    ///
    /// Panics if the configuration has churn enabled — the decentralized
    /// runtimes keep a fixed actor population (dynamic membership is the
    /// simulator's job).
    pub fn from_sim(sim: SimConfig) -> Self {
        assert!(
            sim.churn.arrival_rate() == 0.0 && sim.churn.departure_prob() == 0.0,
            "the decentralized runtimes require a churn-free configuration"
        );
        let impairments = sim.impairment.clone();
        Self {
            sim,
            impairments,
            backend: Backend::default(),
            track_estimate: true,
            trace: false,
        }
    }

    /// Sets the link-impairment plan (loss models, token-bucket shaping,
    /// link bandwidth caps, jitter/latency).
    #[must_use]
    pub fn with_impairments(mut self, impairments: ImpairmentPlan) -> Self {
        self.impairments = impairments;
        self
    }

    /// Enables/disables per-peer internal regret estimates (see
    /// [`track_estimate`](Self::track_estimate)).
    #[must_use]
    pub fn with_track_estimate(mut self, track: bool) -> Self {
        self.track_estimate = track;
        self
    }

    /// Selects the hosting backend.
    #[must_use]
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Enables/disables `rths_obs` tracing for the run (see
    /// [`trace`](Self::trace)).
    #[must_use]
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }
}

/// Runs `epochs` epochs on the backend named by `config.backend` and
/// returns the outcome. The entry point backend-agnostic callers (tests,
/// benches, examples) should use.
pub fn run(config: NetConfig, epochs: u64) -> NetOutcome {
    match config.backend {
        Backend::Reactor => crate::reactor_backend::ReactorRuntime::new(config).run(epochs),
        Backend::Multiproc { processes } => {
            crate::multiproc::run_multiproc(config, epochs, processes).outcome
        }
    }
}

/// Message-overhead accounting — evidence for the paper's "low
/// implementation complexity and low communication overhead" claim.
/// Counted at every protocol send site across all actors (bootstrap
/// traffic excluded), so every backend reports identical totals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MessageTotals {
    /// Control-plane messages: ticks, requests, settles, coordinator
    /// notifications.
    pub control: u64,
    /// Data-plane messages: rate deliveries.
    pub data: u64,
}

impl MessageTotals {
    /// Mean messages per peer per epoch (control + data).
    pub fn per_peer_per_epoch(&self, peers: usize, epochs: u64) -> f64 {
        if peers == 0 || epochs == 0 {
            return 0.0;
        }
        (self.control + self.data) as f64 / peers as f64 / epochs as f64
    }
}

/// Results of a decentralized run. Field-compatible with the simulator's
/// metrics so the two can be compared directly.
#[derive(Debug, Clone)]
pub struct NetOutcome {
    /// Epochs executed.
    pub epochs: u64,
    /// The same metric bundle the simulator produces.
    pub metrics: SimMetrics,
    /// Lifetime mean rate per peer (peer-id order).
    pub peer_mean_rates: Vec<f64>,
    /// Continuity index per peer (peer-id order).
    pub peer_continuity: Vec<f64>,
    /// Total messages exchanged, by plane.
    pub messages: MessageTotals,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor_backend::ReactorRuntime;
    use rths_sim::{BandwidthSpec, Scenario};

    #[test]
    fn full_loss_starves_everyone() {
        let sim = rths_sim::SimConfig::builder(4, vec![BandwidthSpec::Constant(800.0); 2])
            .seed(3)
            .build();
        let plan = ImpairmentPlan::builder(9).uniform_loss(1.0).build().unwrap();
        let config = NetConfig::from_sim(sim).with_impairments(plan);
        let out = ReactorRuntime::new(config).run(10);
        for &w in out.metrics.welfare.values() {
            assert_eq!(w, 0.0);
        }
    }

    #[test]
    fn partial_loss_reduces_welfare() {
        let build = |loss| {
            let sim = rths_sim::SimConfig::builder(8, vec![BandwidthSpec::Constant(800.0); 2])
                .seed(4)
                .build();
            let plan = ImpairmentPlan::builder(5).uniform_loss(loss).build().unwrap();
            let config = NetConfig::from_sim(sim).with_impairments(plan);
            ReactorRuntime::new(config).run(300)
        };
        let clean = build(0.0);
        let lossy = build(0.3);
        let w_clean = clean.metrics.welfare.tail_mean(100);
        let w_lossy = lossy.metrics.welfare.tail_mean(100);
        assert!(
            w_lossy < w_clean * 0.85,
            "loss had no effect: clean {w_clean}, lossy {w_lossy}"
        );
    }

    #[test]
    fn from_sim_inherits_the_sim_impairment_plan() {
        let plan = ImpairmentPlan::builder(3).uniform_loss(1.0).build().unwrap();
        let sim = rths_sim::SimConfig::builder(4, vec![BandwidthSpec::Constant(800.0); 2])
            .seed(2)
            .impairment(plan)
            .build();
        let out = ReactorRuntime::new(NetConfig::from_sim(sim)).run(5);
        // The inherited full-loss plan starves every epoch.
        for &w in out.metrics.welfare.values() {
            assert_eq!(w, 0.0);
        }
    }

    #[test]
    fn message_overhead_is_constant_per_peer() {
        // Per epoch and peer: 1 Tick + 1 Request + 1 Selected + 1
        // Observed control messages (+ per-helper Tick/Settle/Report
        // amortised), and exactly 1 data (Rate) message. The paper's
        // low-overhead claim, quantified.
        let sim = Scenario::paper_small().seed(12).build();
        let out = ReactorRuntime::new(NetConfig::from_sim(sim)).run(100);
        assert_eq!(out.messages.data, 10 * 100);
        // Per peer: Tick + Request + Selected + Observed (4); per
        // helper: Tick + Settle + HelperReport (3).
        let expected_control = (10 * 4 + 4 * 3) * 100;
        assert_eq!(out.messages.control, expected_control as u64);
        let per_peer = out.messages.per_peer_per_epoch(10, 100);
        assert!(per_peer < 7.0, "overhead {per_peer} messages/peer/epoch");
    }

    #[test]
    fn backend_dispatcher_routes_both_ways() {
        // A one-process multiproc run takes the bridged code path without
        // spawning workers, so this stays a plain unit test.
        let sim = Scenario::paper_small().seed(21).build();
        let reactor = run(NetConfig::from_sim(sim.clone()), 40);
        let multiproc =
            run(NetConfig::from_sim(sim).with_backend(Backend::Multiproc { processes: 1 }), 40);
        assert_eq!(reactor.epochs, multiproc.epochs);
        assert_eq!(
            reactor.metrics.welfare.values(),
            multiproc.metrics.welfare.values(),
            "backends diverged"
        );
        assert_eq!(reactor.messages, multiproc.messages, "message accounting diverged");
    }

    #[test]
    #[should_panic(expected = "churn-free")]
    fn churny_config_rejected() {
        let sim = Scenario::churn().seed(1).build();
        let _ = NetConfig::from_sim(sim);
    }
}
