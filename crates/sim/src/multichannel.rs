//! Multi-channel extension (the paper's stated future work).
//!
//! §V: "Our future work is to extend the RTHS to the problem of joint
//! bandwidth allocation in the helper level to the video channels and
//! helper selection in the peer level." This module implements exactly
//! that two-level system:
//!
//! * **Helper level** — each helper serves a subset of channels and
//!   splits its (stochastic) capacity across them per an
//!   [`AllocationPolicy`];
//! * **Peer level** — every viewer runs an RTHS learner whose action set
//!   is the helpers serving *its* channel, with bandit feedback, exactly
//!   as in the single-channel system.
//!
//! Channel popularity is Zipf-distributed by default
//! ([`MultiChannelConfig::zipf_population`]), matching measurements of
//! deployed multi-channel systems.

use rths_core::{ConvergenceSeries, Learner};
use rths_obs::{self as obs, Phase};
use rths_stoch::rng::{entity_rng, seeded_rng};
use rths_stoch::Zipf;

use crate::channel::Channel;
use crate::config::{BandwidthSpec, LearnerSpec};
use crate::helper::{Helper, HelperId};
use crate::server::StreamingServer;
use crate::store::{PeerStore, ShardScratch};

/// How a helper divides its upload capacity among the channels it serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum AllocationPolicy {
    /// Equal share per served channel regardless of viewership — the
    /// naive static split.
    EvenSplit,
    /// Proportional to the number of connected viewers per channel
    /// (global even split across viewers).
    LoadProportional,
    /// Demand-proportional water-filling: channel `c` gets
    /// `D_c · min(1, C/ΣD)` where `D_c = n_c · bitrate_c` — delivers the
    /// maximum feasible total. **Default.**
    #[default]
    WaterFilling,
    /// **Learned** (the paper's future work, attempted faithfully): each
    /// helper runs its own RTHS learner over discrete split templates,
    /// scored by its own delivered throughput on a slow timescale (each
    /// template held ~100 epochs so viewers can adapt to it).
    ///
    /// This is a **negative result** (measured by the `ext_multichannel`
    /// bench binary): selfish throughput feedback under-performs even the
    /// static even split, because a helper's misallocation cost is largely borne by
    /// *other* helpers — viewers migrate away and the explorer's own
    /// throughput barely drops (and under overload every split saturates,
    /// erasing the gradient entirely). Demand-aware allocation needs
    /// demand information; the paper's future work is not achievable by
    /// naively reusing the peer-level machinery at the helper level.
    Learned,
}

impl AllocationPolicy {
    /// Splits capacity `cap` over channels with viewer counts `loads` and
    /// per-viewer demands `bitrates`. Returns per-channel bandwidth.
    ///
    /// # Panics
    ///
    /// Panics for [`AllocationPolicy::Learned`], whose splits are chosen
    /// by per-helper learners inside [`MultiChannelSystem`].
    pub fn split(&self, cap: f64, loads: &[usize], bitrates: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(loads.len());
        self.split_into(cap, loads, bitrates, &mut out);
        out
    }

    /// Allocation-free variant of [`split`](Self::split): appends the
    /// per-channel bandwidths to `out` (cleared first), reusing its
    /// capacity — the per-epoch path of [`MultiChannelSystem`].
    ///
    /// # Panics
    ///
    /// Same contract as [`split`](Self::split).
    pub fn split_into(&self, cap: f64, loads: &[usize], bitrates: &[f64], out: &mut Vec<f64>) {
        assert_eq!(loads.len(), bitrates.len(), "loads/bitrates length mismatch");
        out.clear();
        let k = loads.len();
        if k == 0 {
            return;
        }
        match self {
            AllocationPolicy::Learned => {
                panic!("learned allocation is resolved by MultiChannelSystem, not split()")
            }
            AllocationPolicy::EvenSplit => out.resize(k, cap / k as f64),
            AllocationPolicy::LoadProportional => {
                let total: usize = loads.iter().sum();
                if total == 0 {
                    out.resize(k, cap / k as f64);
                } else {
                    out.extend(loads.iter().map(|&n| cap * n as f64 / total as f64));
                }
            }
            AllocationPolicy::WaterFilling => {
                let total: f64 = loads.iter().zip(bitrates).map(|(&n, &b)| n as f64 * b).sum();
                if total <= 0.0 {
                    out.resize(k, cap / k as f64);
                } else {
                    let scale = (cap / total).min(1.0);
                    out.extend(loads.iter().zip(bitrates).map(|(&n, &b)| n as f64 * b * scale));
                }
            }
        }
    }
}

/// Configuration of the multi-channel system.
#[derive(Debug, Clone)]
pub struct MultiChannelConfig {
    /// The channels (id + bitrate = per-viewer demand).
    pub channels: Vec<Channel>,
    /// Helper bandwidth processes.
    pub helpers: Vec<BandwidthSpec>,
    /// `helper_channels[j]` — channel ids helper `j` serves.
    pub helper_channels: Vec<Vec<usize>>,
    /// Initial viewers per channel.
    pub viewers: Vec<usize>,
    /// Capacity split policy at helpers.
    pub allocation: AllocationPolicy,
    /// Learner parameters for viewers.
    pub learner: LearnerSpec,
    /// Learner parameters for helper-level allocation (only used by
    /// [`AllocationPolicy::Learned`]); `None` derives a spec tuned for
    /// the helper's utility scale (`ε=0.02`, `δ=0.05`, `μ = capacity`).
    pub helper_learner: Option<LearnerSpec>,
    /// RNG seed.
    pub seed: u64,
}

impl MultiChannelConfig {
    /// Builds a standard instance: `k` channels at `bitrate` kbps,
    /// `num_helpers` paper-chain helpers each serving a contiguous block
    /// of channels (wrap-around) of size `channels_per_helper`, and
    /// `num_viewers` viewers allocated by Zipf(`zipf_s`) popularity.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero or `channels_per_helper > k`.
    #[allow(clippy::too_many_arguments)]
    pub fn standard(
        k: usize,
        bitrate: f64,
        num_helpers: usize,
        channels_per_helper: usize,
        num_viewers: usize,
        zipf_s: f64,
        allocation: AllocationPolicy,
        seed: u64,
    ) -> Self {
        assert!(k > 0 && num_helpers > 0 && channels_per_helper > 0, "counts must be positive");
        assert!(channels_per_helper <= k, "helpers cannot serve more channels than exist");
        let channels = crate::channel::uniform_channels(k, bitrate);
        let helper_channels: Vec<Vec<usize>> = (0..num_helpers)
            .map(|j| (0..channels_per_helper).map(|o| (j + o) % k).collect())
            .collect();
        let viewers = Self::zipf_population(k, num_viewers, zipf_s);
        Self {
            channels,
            helpers: vec![BandwidthSpec::Paper { stay: 0.98 }; num_helpers],
            helper_channels,
            viewers,
            allocation,
            learner: LearnerSpec::default(),
            helper_learner: None,
            seed,
        }
    }

    /// Splits `total` viewers over `k` channels with Zipf(`s`) popularity.
    pub fn zipf_population(k: usize, total: usize, s: f64) -> Vec<usize> {
        Zipf::new(k, s).allocate(total)
    }

    fn validate(&self) {
        assert!(!self.channels.is_empty(), "need at least one channel");
        assert_eq!(
            self.helpers.len(),
            self.helper_channels.len(),
            "one channel set per helper"
        );
        assert_eq!(self.viewers.len(), self.channels.len(), "one viewer count per channel");
        for (j, chans) in self.helper_channels.iter().enumerate() {
            assert!(!chans.is_empty(), "helper {j} serves no channels");
            assert!(
                chans.iter().all(|&c| c < self.channels.len()),
                "helper {j} serves an unknown channel"
            );
        }
        // Every channel with viewers needs at least one helper.
        for (c, &v) in self.viewers.iter().enumerate() {
            if v > 0 {
                assert!(
                    self.helper_channels.iter().any(|chans| chans.contains(&c)),
                    "channel {c} has viewers but no helper"
                );
            }
        }
    }
}

/// Per-epoch and summary results of a multi-channel run.
#[derive(Debug, Clone)]
pub struct MultiChannelOutcome {
    /// Epochs executed.
    pub epochs: u64,
    /// Total delivered rate per epoch.
    pub welfare: ConvergenceSeries,
    /// Server load per epoch (sum over channels).
    pub server_load: ConvergenceSeries,
    /// Delivered rate per channel (time-averaged).
    pub mean_channel_rates: Vec<f64>,
    /// Continuity index per channel (mean over its viewers).
    pub channel_continuity: Vec<f64>,
    /// Jain fairness across all viewers' lifetime mean rates.
    pub viewer_fairness: f64,
    /// Worst-viewer empirical regret per epoch.
    pub worst_empirical_regret: ConvergenceSeries,
}

/// Mean long-run capacity across helpers (800 kbps fallback).
fn mean_helper_capacity(helpers: &[Helper]) -> f64 {
    if helpers.is_empty() {
        return 800.0;
    }
    helpers.iter().map(|h| h.mean_capacity().unwrap_or(800.0)).sum::<f64>()
        / helpers.len() as f64
}

/// A helper's allocation learner (the future-work extension): an RTHS
/// learner over split templates, run on a slower timescale than the
/// viewers — each chosen template is **held for a window of epochs** so
/// the viewer population can adapt to it before the helper scores it
/// (classic two-timescale learning for coupled games). Feedback is the
/// helper's own mean delivered throughput over the window.
#[derive(Debug)]
struct HelperAllocator {
    learner: crate::config::AnyLearner,
    templates: Vec<Vec<f64>>,
    rng: rand::rngs::StdRng,
    /// Epochs each template is held before being scored.
    window: u32,
    current: usize,
    acc: f64,
    count: u32,
}

impl HelperAllocator {
    /// The template weights to use this epoch (advances the learner at
    /// window boundaries).
    fn weights(&mut self) -> &[f64] {
        if self.count == 0 {
            self.current = self.learner.select_action(&mut self.rng);
        }
        &self.templates[self.current]
    }

    /// Records this epoch's delivered throughput; closes the window when
    /// due.
    fn record(&mut self, delivered: f64) {
        self.acc += delivered;
        self.count += 1;
        if self.count >= self.window {
            self.learner.observe(self.acc / self.count as f64);
            self.acc = 0.0;
            self.count = 0;
        }
    }
}

/// Weight templates over `c` served channels with grid granularity 4:
/// all non-negative integer compositions of 4 into `c` parts, scaled to
/// sum to 1 (e.g. for 2 channels: 100/0, 75/25, 50/50, 25/75, 0/100).
fn split_templates(channels: usize) -> Vec<Vec<f64>> {
    const GRID: usize = 4;
    let mut out = Vec::new();
    let mut stack = vec![0usize; channels];
    fn rec(out: &mut Vec<Vec<f64>>, stack: &mut Vec<usize>, j: usize, left: usize) {
        if j == stack.len() - 1 {
            stack[j] = left;
            out.push(stack.iter().map(|&w| w as f64 / 4.0).collect());
            return;
        }
        for take in 0..=left {
            stack[j] = take;
            rec(out, stack, j + 1, left - take);
        }
    }
    if channels == 0 {
        return out;
    }
    rec(&mut out, &mut stack, 0, GRID);
    out
}

/// Reusable per-epoch buffers, hoisted out of
/// [`MultiChannelSystem::step_epoch`] so steady-state epochs allocate
/// nothing. Matrices over (helper, channel) are stored flattened row-major
/// (`index = helper * num_channels + channel`).
#[derive(Debug, Default)]
struct McScratch {
    /// Local action (index into the channel's helper list) per peer.
    locals: Vec<u32>,
    /// Global helper index per peer.
    globals: Vec<u32>,
    /// Viewers of channel `c` connected to helper `j`, flattened (merged
    /// from the per-shard histograms in shard order).
    loads: Vec<usize>,
    /// Bandwidth helper `j` assigns to channel `c`, flattened.
    bandwidth: Vec<f64>,
    /// Per-helper split inputs/outputs (reused across helpers).
    served_loads: Vec<usize>,
    served_rates: Vec<f64>,
    split: Vec<f64>,
    /// Counterfactual join rates, grouped per channel: channel `c`'s
    /// rates live at `join_rates[join_offsets[c]..join_offsets[c + 1]]`.
    join_offsets: Vec<usize>,
    join_rates: Vec<f64>,
    /// Delivered rate per peer.
    delivered: Vec<f64>,
    /// Unmet demand per peer.
    residuals: Vec<f64>,
    /// Throughput delivered via each helper.
    helper_delivered: Vec<f64>,
    /// Per-shard thread-affine scratch.
    shards: Vec<ShardScratch>,
}

/// The two-level multi-channel system.
pub struct MultiChannelSystem {
    config: MultiChannelConfig,
    /// Per-channel bitrates, cached from `config.channels` (channels are
    /// immutable for the lifetime of a system).
    bitrates: Vec<f64>,
    helpers: Vec<Helper>,
    /// Per-helper allocation learners (only for
    /// [`AllocationPolicy::Learned`]).
    helper_learners: Vec<Option<HelperAllocator>>,
    /// Viewers in the sharded SoA store, grouped by channel at
    /// construction (learner action = index into the channel's helper
    /// list).
    peers: PeerStore,
    /// `channel_helpers[c]` — global helper indices serving channel `c`.
    channel_helpers: Vec<Vec<usize>>,
    server: StreamingServer,
    epoch: u64,
    welfare: ConvergenceSeries,
    server_load: ConvergenceSeries,
    worst_empirical_regret: ConvergenceSeries,
    channel_rate_sums: Vec<f64>,
    scratch: McScratch,
}

impl std::fmt::Debug for MultiChannelSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiChannelSystem")
            .field("epoch", &self.epoch)
            .field("channels", &self.config.channels.len())
            .field("helpers", &self.helpers.len())
            .field("viewers", &self.peers.len())
            .finish()
    }
}

impl MultiChannelSystem {
    /// Builds the system.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`MultiChannelConfig`] invariants).
    pub fn new(config: MultiChannelConfig) -> Self {
        config.validate();
        let mut master_rng = seeded_rng(config.seed);
        let helpers: Vec<Helper> = config
            .helpers
            .iter()
            .enumerate()
            .map(|(j, spec)| {
                Helper::with_seed(
                    HelperId(j as u32),
                    spec.instantiate(&mut master_rng),
                    config.seed,
                )
            })
            .collect();
        let k = config.channels.len();
        let mut channel_helpers = vec![Vec::new(); k];
        for (j, chans) in config.helper_channels.iter().enumerate() {
            for &c in chans {
                channel_helpers[c].push(j);
            }
        }
        // Rate scale for μ derivation: the system-wide fair share,
        // capped by the smallest channel bitrate.
        let total_cap: f64 = helpers.iter().map(|h| h.mean_capacity().unwrap_or(800.0)).sum();
        let total_viewers: usize = config.viewers.iter().sum();
        let min_bitrate =
            config.channels.iter().map(Channel::bitrate).fold(f64::INFINITY, f64::min);
        let rate_scale = (total_cap / total_viewers.max(1) as f64).min(min_bitrate);
        let actions_per_channel: Vec<usize> =
            channel_helpers.iter().map(|chans| chans.len()).collect();
        let mut peers = PeerStore::new(
            config.seed,
            config.learner.clone(),
            rate_scale,
            &actions_per_channel,
        );
        peers.reserve(total_viewers);
        for (c, &count) in config.viewers.iter().enumerate() {
            for _ in 0..count {
                peers.spawn(c, 0);
            }
        }
        let channel_rate_sums = vec![0.0; k];
        // Helper-level allocation learners (future-work extension): one
        // RTHS learner per helper over its split templates, fed by its own
        // delivered throughput. Stream ids continue after the viewers'.
        let helper_learners = if config.allocation == AllocationPolicy::Learned {
            config
                .helper_channels
                .iter()
                .enumerate()
                .map(|(j, served)| {
                    let templates = split_templates(served.len());
                    let spec = config.helper_learner.clone().unwrap_or(LearnerSpec {
                        epsilon: 0.05,
                        delta: 0.1,
                        mu: Some(mean_helper_capacity(&helpers)),
                        ..LearnerSpec::default()
                    });
                    let learner = spec
                        .instantiate(templates.len(), mean_helper_capacity(&helpers))
                        .expect("validated learner spec");
                    let rng = entity_rng(
                        config.seed,
                        crate::helper::HELPER_STREAM_BASE / 2 + j as u64,
                    );
                    Some(HelperAllocator {
                        learner,
                        templates,
                        rng,
                        window: 100,
                        current: 0,
                        acc: 0.0,
                        count: 0,
                    })
                })
                .collect()
        } else {
            (0..helpers.len()).map(|_| None).collect()
        };
        Self {
            helper_learners,
            bitrates: config.channels.iter().map(Channel::bitrate).collect(),
            config,
            helpers,
            peers,
            channel_helpers,
            server: StreamingServer::new(),
            epoch: 0,
            welfare: ConvergenceSeries::new("welfare"),
            server_load: ConvergenceSeries::new("server_load"),
            worst_empirical_regret: ConvergenceSeries::new("worst_empirical_regret"),
            channel_rate_sums,
            scratch: McScratch::default(),
        }
    }

    /// Viewers currently online.
    pub fn num_viewers(&self) -> usize {
        self.peers.len()
    }

    /// The sharded SoA peer store (stable ids, per-peer accounting).
    pub fn peers(&self) -> &PeerStore {
        &self.peers
    }

    /// Pins the peer-store shard count (tests/benches); `None` restores
    /// the default derived from [`rths_par::threads`]. Results are
    /// bit-identical at any setting.
    pub fn set_shards(&mut self, shards: Option<usize>) {
        self.peers.set_shards(shards);
    }

    /// Current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Moves `count` viewers from one channel to another (popularity
    /// shift). Viewers keep their identity but restart their learners on
    /// the new channel's helper set.
    ///
    /// # Panics
    ///
    /// Panics if either channel id is unknown.
    pub fn migrate_viewers(&mut self, from: usize, to: usize, count: usize) {
        let k = self.config.channels.len();
        assert!(from < k && to < k, "unknown channel");
        let mut moved = 0;
        for slot in 0..self.peers.len() {
            if moved == count {
                break;
            }
            if self.peers.channel(slot) == from {
                self.peers.set_channel(slot, to);
                moved += 1;
            }
        }
    }

    /// Runs `epochs` epochs, returning cumulative results.
    pub fn run(&mut self, epochs: u64) -> MultiChannelOutcome {
        for _ in 0..epochs {
            self.step_epoch();
        }
        self.outcome()
    }

    fn step_epoch(&mut self) {
        let h = self.helpers.len();
        let k = self.config.channels.len();
        // Observability (bit-exact neutral — see `rths_obs` docs): tag
        // the epoch and span the pipeline phases.
        let ep = self.epoch;
        if obs::enabled() {
            obs::set_epoch(ep);
        }
        let t_epoch = obs::span_start();
        let t = obs::span_start();
        for helper in &mut self.helpers {
            helper.step();
        }
        if let Some(t) = t {
            obs::span_end(Phase::HelperDynamics, ep, t);
        }

        let n = self.peers.len();
        let bitrates = &self.bitrates;
        let channel_helpers = &self.channel_helpers;
        let McScratch {
            locals,
            globals,
            loads,
            bandwidth,
            served_loads,
            served_rates,
            split,
            join_offsets,
            join_rates,
            delivered,
            residuals,
            helper_delivered,
            shards,
        } = &mut self.scratch;

        // Peer-level helper selection (local action index into the
        // channel's helper list), shard-parallel over the peer store:
        // each peer samples from its own RNG stream, so the profile is
        // independent of the shard partition. Each shard accumulates its
        // own loads[j*k + c] histogram (viewers of channel c connected to
        // helper j) and resolves the global helper index into `globals`;
        // the histograms merge in shard order (integer counts).
        // resize without clear: the phase writes every slot of both
        // columns, so no per-epoch memset is needed.
        locals.resize(n, 0);
        globals.resize(n, 0);
        let t = obs::span_start();
        self.peers.choose_phase(
            locals,
            globals,
            loads,
            h * k,
            shards,
            |_, local, c, global_slot, loads| {
                let global = channel_helpers[c as usize][local as usize];
                *global_slot = global as u32;
                loads[global * k + c as usize] += 1;
            },
        );
        if let Some(t) = t {
            obs::span_end(Phase::Choose, ep, t);
        }

        // Helper-level bandwidth allocation across channels.
        let t = obs::span_start();
        bandwidth.clear();
        bandwidth.resize(h * k, 0.0);
        for j in 0..h {
            let served = &self.config.helper_channels[j];
            match &mut self.helper_learners[j] {
                Some(alloc) => {
                    // RTHS at the helper level, on a slower timescale:
                    // the current template is held for a window of epochs
                    // before being scored (see HelperAllocator).
                    let cap = self.helpers[j].capacity();
                    split.clear();
                    split.extend(alloc.weights().iter().map(|w| w * cap));
                }
                None => {
                    served_loads.clear();
                    served_loads.extend(served.iter().map(|&c| loads[j * k + c]));
                    served_rates.clear();
                    served_rates.extend(served.iter().map(|&c| bitrates[c]));
                    self.config.allocation.split_into(
                        self.helpers[j].capacity(),
                        served_loads,
                        served_rates,
                        split,
                    );
                }
            }
            for (idx, &c) in served.iter().enumerate() {
                bandwidth[j * k + c] = split[idx];
            }
        }

        // Counterfactual join rates, grouped per channel: they depend
        // only on the channel (loads count the incumbent peers), so one
        // evaluation serves every viewer of the channel — the sequential
        // engine used to rebuild this vector per peer, per epoch.
        join_offsets.clear();
        join_rates.clear();
        join_offsets.push(0);
        for c in 0..k {
            let d = bitrates[c];
            join_rates.extend(self.channel_helpers[c].iter().map(|&jj| {
                let n_joined = loads[jj * k + c] + 1;
                (bandwidth[jj * k + c] / n_joined as f64).min(d)
            }));
            join_offsets.push(join_rates.len());
        }
        if let Some(t) = t {
            obs::span_end(Phase::RateAlloc, ep, t);
        }

        // Delivery and bandit feedback (shard-parallel). Each peer's rate
        // lands in an index-aligned slot; every order-sensitive float
        // reduction happens below in peer order, so results are
        // bit-identical at any shard count.
        delivered.resize(n, 0.0);
        let t = obs::span_start();
        let (_, worst_emp) = {
            let globals = &*globals;
            let loads = &*loads;
            let bandwidth = &*bandwidth;
            self.peers.observe_phase(
                locals,
                delivered,
                join_offsets,
                join_rates,
                shards,
                // This engine never recorded the learners' internal
                // regret estimates — skip the per-peer proxy scan.
                false,
                move |i, _, c| {
                    let c = c as usize;
                    let d = bitrates[c];
                    let global = globals[i] as usize;
                    let n_c = loads[global * k + c];
                    let share =
                        if n_c == 0 { 0.0 } else { bandwidth[global * k + c] / n_c as f64 };
                    let rate = share.min(d);
                    (rate, rate >= d - 1e-9)
                },
            )
        };
        if let Some(t) = t {
            obs::span_end(Phase::Observe, ep, t);
        }
        let mut welfare = 0.0;
        helper_delivered.clear();
        helper_delivered.resize(h, 0.0);
        residuals.clear();
        for (i, &rate) in delivered.iter().enumerate() {
            let c = self.peers.channel(i);
            helper_delivered[globals[i] as usize] += rate;
            welfare += rate;
            self.channel_rate_sums[c] += rate;
            residuals.push((bitrates[c] - rate).max(0.0));
        }
        // Helper-level bandit feedback: each learning helper accumulates
        // its own delivered throughput — purely local information.
        for (slot, &dlv) in self.helper_learners.iter_mut().zip(helper_delivered.iter()) {
            if let Some(alloc) = slot {
                alloc.record(dlv);
            }
        }
        let t = obs::span_start();
        let total_demand: f64 =
            (0..self.peers.len()).map(|i| bitrates[self.peers.channel(i)]).sum();
        let helper_min: f64 = self.helpers.iter().map(Helper::min_capacity).sum();
        let helper_now: f64 = self.helpers.iter().map(Helper::capacity).sum();
        let epoch_result =
            self.server.settle_epoch(residuals, total_demand, helper_min, helper_now);
        if let Some(t) = t {
            obs::span_end(Phase::Settle, ep, t);
        }

        let t = obs::span_start();
        self.welfare.push(welfare);
        self.server_load.push(epoch_result.load);
        self.worst_empirical_regret.push(worst_emp);
        if let Some(t) = t {
            obs::span_end(Phase::Metrics, ep, t);
        }
        if let Some(t) = t_epoch {
            obs::span_end(Phase::Epoch, ep, t);
        }
        self.epoch += 1;
    }

    /// Snapshot of cumulative results.
    pub fn outcome(&self) -> MultiChannelOutcome {
        let k = self.config.channels.len();
        let denom = self.epoch.max(1) as f64;
        let mean_channel_rates: Vec<f64> =
            self.channel_rate_sums.iter().map(|s| s / denom).collect();
        let mut continuity_sums = vec![0.0; k];
        let mut continuity_counts = vec![0usize; k];
        let mut viewer_rates = Vec::with_capacity(self.peers.len());
        for slot in 0..self.peers.len() {
            let c = self.peers.channel(slot);
            continuity_sums[c] += self.peers.continuity(slot);
            continuity_counts[c] += 1;
            viewer_rates.push(self.peers.mean_rate(slot));
        }
        let channel_continuity: Vec<f64> = continuity_sums
            .iter()
            .zip(&continuity_counts)
            .map(|(&s, &c)| if c == 0 { 1.0 } else { s / c as f64 })
            .collect();
        MultiChannelOutcome {
            epochs: self.epoch,
            welfare: self.welfare.clone(),
            server_load: self.server_load.clone(),
            mean_channel_rates,
            channel_continuity,
            viewer_fairness: rths_math::stats::jain_index(&viewer_rates),
            worst_empirical_regret: self.worst_empirical_regret.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn standard(alloc: AllocationPolicy, seed: u64) -> MultiChannelSystem {
        MultiChannelSystem::new(MultiChannelConfig::standard(
            4, 400.0, 8, 2, 80, 1.0, alloc, seed,
        ))
    }

    #[test]
    fn allocation_policies_split_capacity_exactly_or_less() {
        for policy in [
            AllocationPolicy::EvenSplit,
            AllocationPolicy::LoadProportional,
            AllocationPolicy::WaterFilling,
        ] {
            let split = policy.split(900.0, &[3, 1, 0], &[400.0, 400.0, 400.0]);
            let total: f64 = split.iter().sum();
            assert!(total <= 900.0 + 1e-9, "{policy:?} oversubscribed: {total}");
            assert!(split.iter().all(|&b| b >= 0.0));
        }
    }

    #[test]
    fn water_filling_caps_at_demand() {
        let split = AllocationPolicy::WaterFilling.split(10_000.0, &[2, 1], &[400.0, 300.0]);
        // Demands are 800 and 300; capacity is abundant so split == demand.
        assert!((split[0] - 800.0).abs() < 1e-9);
        assert!((split[1] - 300.0).abs() < 1e-9);
    }

    #[test]
    fn water_filling_scales_down_proportionally() {
        let split = AllocationPolicy::WaterFilling.split(550.0, &[2, 1], &[400.0, 300.0]);
        // Total demand 1100, capacity 550 -> scale 0.5.
        assert!((split[0] - 400.0).abs() < 1e-9);
        assert!((split[1] - 150.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_population_sums() {
        let pop = MultiChannelConfig::zipf_population(5, 100, 1.0);
        assert_eq!(pop.iter().sum::<usize>(), 100);
        assert!(pop[0] >= pop[4], "popularity should be rank-ordered: {pop:?}");
    }

    #[test]
    fn system_runs_and_reports() {
        let mut sys = standard(AllocationPolicy::WaterFilling, 1);
        let out = sys.run(200);
        assert_eq!(out.epochs, 200);
        assert_eq!(out.mean_channel_rates.len(), 4);
        assert_eq!(out.channel_continuity.len(), 4);
        assert!(out.viewer_fairness > 0.0 && out.viewer_fairness <= 1.0);
        assert_eq!(sys.num_viewers(), 80);
    }

    #[test]
    fn welfare_bounded_by_capacity_and_demand() {
        let mut sys = standard(AllocationPolicy::WaterFilling, 2);
        let out = sys.run(100);
        let cap_bound: f64 = 8.0 * 900.0;
        let demand_bound: f64 = 80.0 * 400.0;
        for &w in out.welfare.values() {
            assert!(w <= cap_bound.min(demand_bound) + 1e-6);
        }
    }

    #[test]
    fn water_filling_beats_even_split() {
        // The headline of the extension experiment: demand-aware
        // allocation delivers more than the naive static split. The gap
        // widens with popularity skew, so use Zipf(1.5).
        let run = |alloc| {
            let mut sys = MultiChannelSystem::new(MultiChannelConfig::standard(
                4, 400.0, 8, 2, 80, 1.5, alloc, 3,
            ));
            sys.run(1500).welfare.tail_mean(300)
        };
        let tail_even = run(AllocationPolicy::EvenSplit);
        let tail_wf = run(AllocationPolicy::WaterFilling);
        assert!(
            tail_wf > tail_even * 1.02,
            "water-filling {tail_wf} not better than even split {tail_even}"
        );
    }

    #[test]
    fn learned_allocation_runs_and_stays_sane() {
        // The negative-result configuration: learned helper allocation is
        // implemented and stable, but does not beat informed policies (see
        // the AllocationPolicy::Learned docs). We assert sanity and the
        // documented band: within [80%, 110%] of the even split.
        let run = |policy| {
            let mut sys = MultiChannelSystem::new(MultiChannelConfig::standard(
                4, 300.0, 12, 2, 24, 1.5, policy, 13,
            ));
            sys.run(8000).welfare.tail_mean(1500)
        };
        let even = run(AllocationPolicy::EvenSplit);
        let learned = run(AllocationPolicy::Learned);
        assert!(
            learned > 0.8 * even && learned < 1.1 * even,
            "learned {learned:.0} outside the documented band around even {even:.0}"
        );
    }

    #[test]
    fn split_templates_are_distributions() {
        for c in 1..5 {
            let ts = split_templates(c);
            assert!(!ts.is_empty());
            for t in &ts {
                assert_eq!(t.len(), c);
                let sum: f64 = t.iter().sum();
                assert!((sum - 1.0).abs() < 1e-12, "template {t:?}");
                assert!(t.iter().all(|&w| (0.0..=1.0).contains(&w)));
            }
            // Compositions of 4 into c parts: C(4+c-1, c-1).
            let expected = match c {
                1 => 1,
                2 => 5,
                3 => 15,
                4 => 35,
                _ => unreachable!(),
            };
            assert_eq!(ts.len(), expected);
        }
    }

    #[test]
    #[should_panic(expected = "resolved by MultiChannelSystem")]
    fn split_panics_for_learned() {
        let _ = AllocationPolicy::Learned.split(800.0, &[1, 2], &[300.0, 300.0]);
    }

    #[test]
    fn migration_moves_viewers() {
        let mut sys = standard(AllocationPolicy::WaterFilling, 4);
        let on_channel = |sys: &MultiChannelSystem, c| {
            (0..sys.peers.len()).filter(|&i| sys.peers.channel(i) == c).count()
        };
        let before = on_channel(&sys, 0);
        sys.migrate_viewers(0, 3, 5);
        let after = on_channel(&sys, 0);
        assert_eq!(before - 5, after);
        // System still runs after migration.
        let out = sys.run(50);
        assert_eq!(out.epochs, 50);
    }

    #[test]
    #[should_panic(expected = "has viewers but no helper")]
    fn uncovered_channel_rejected() {
        let mut config = MultiChannelConfig::standard(
            3,
            400.0,
            2,
            1,
            30,
            1.0,
            AllocationPolicy::EvenSplit,
            0,
        );
        // Helpers serve channels 0 and 1 only; channel 2 has viewers.
        config.helper_channels = vec![vec![0], vec![1]];
        let _ = MultiChannelSystem::new(config);
    }
}
