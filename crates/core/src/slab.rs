//! Arena slabs of learner state + batched column-major T-matrix kernels.
//!
//! At 10⁵+ peers the per-peer [`RthsState`](crate::RthsState) layout is
//! allocator-bound: every peer carries its own `Matrix::zeros(m, m)` heap
//! block (32 KB at m = 64), so *constructing* a mesh costs one allocation
//! storm and the T-matrices dominate peak RSS. [`LearnerSlab`] packs all
//! same-shard peers' learner state into a handful of flat columns — the
//! structure-of-arrays counterpart of `rths_sim`'s `PeerStore`:
//!
//! ```text
//!            slot 0                    slot 1                 …
//!   t:     [ col₀ | col₁ | … | colₛ ][ col₀ | col₁ | … ]      stride s²
//!           └─ T(r,k) at k·s + r  (column-major per slot)
//!   probs: [ p₀ … pₛ ]             [ p₀ … pₛ ]                stride s
//!   freq:  [ f₀ … fₛ ]             [ f₀ … fₛ ]                stride s
//!   played:[ column bitmask ]      [ column bitmask ]         ⌈s/64⌉ words
//!   arity / stage / pending: one scalar per slot
//! ```
//!
//! The layout is chosen so every hot loop of the learner update runs over
//! a **contiguous** slice that LLVM autovectorizes (`rths_math::kernels`):
//! the rank-1 update touches exactly column `j`, the exponential decay
//! walks whole columns, and `max_regret` scans column-against-diagonal.
//! The played-column bitmask makes both *provably sparse*: a column `k`
//! is only ever written by the decay itself (a bitwise no-op on an
//! all-zero column, since `+0.0 · (1−ε) = +0.0`) and by the rank-1 update
//! when `k` was the played action — so never-played columns are exactly
//! `+0.0` everywhere. Skipping their decay is bit-identical, and in the
//! regret estimate they all contribute one and the same value, so a
//! single zero-column pass stands in for every one of them. That cuts
//! the per-observe decay and the per-stage estimate from `O(m²)` down to
//! `O(played · m)` (plus `O(m)` for the zero pass), and leaves the
//! untouched columns' pages unread and unwritten (one big lazily-mapped
//! zero allocation instead of 10⁵ eagerly-zeroed ones), which is where
//! the construction-time and peak-RSS wins at the 10⁵-actor point come
//! from. The gain lasts as long as peers have tried few of their `m`
//! actions: over long runs the played set grows towards `m` and both
//! costs return to `O(m²)`.
//!
//! Every operation performs the **exact float expressions in the exact
//! order** of the scalar oracle ([`RthsState`](crate::RthsState)), so
//! slab-backed learners replay the scalar path bit-for-bit — proven by
//! the oracle tests below and the proptest sweep in
//! `tests/properties.rs`.
//!
//! Two usage modes (per instance — they must not be mixed):
//!
//! * **slot-aligned mode** (`rths_sim`'s `PeerStore`): slab slot ==
//!   store slot; departures go through [`LearnerSlab::remove_slots`]'s
//!   order-preserving compaction (mirroring the store's column
//!   compaction), and the free list stays empty.
//! * **free-list mode** (the reactor backend, one slab per mailbox
//!   shard): [`alloc`](LearnerSlab::alloc) / [`release`](LearnerSlab::release)
//!   with stable slots; [`SlabLearner`] wraps one slot behind the
//!   [`Learner`] trait for actors that own their learner.

use std::sync::{Arc, Mutex};

use rand::RngCore;
use rths_math::kernels;
use rths_par::{ShardCols, Strided};

use crate::config::{RecencyMode, RthsConfig};
use crate::learner::Learner;
use crate::policy;

/// Sentinel in the `pending` column: no observation outstanding.
pub const NO_PENDING: u32 = u32::MAX;

/// The averaging factor turning proxy differences into regrets — `ε` for
/// the tracking modes, `1/n` for uniform matching (same as
/// `RthsState::factor`).
fn factor_for(config: &RthsConfig, stage: u64) -> f64 {
    match config.recency() {
        RecencyMode::Exponential | RecencyMode::PaperLiteral => config.epsilon(),
        RecencyMode::Uniform => 1.0 / stage.max(1) as f64,
    }
}

/// Rows per diagonal chunk of the regret scan: one bitmask word's worth,
/// so chunk `w` of the diagonal is exactly the rows flagged in word `w`.
const DIAG_CHUNK: usize = 64;

/// Indices of the set bits of one bitmask word, ascending.
fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let b = word.trailing_zeros() as usize;
            word &= word - 1;
            b
        })
    })
}

/// Applies `T[:, k] *= keep` to every column flagged in the played
/// bitmask. Unflagged columns are exactly `+0.0` (slab invariant), for
/// which the decay is a bitwise no-op — skipping them changes nothing
/// and keeps their pages unwritten.
fn decay_columns(t: &mut [f64], played: &[u64], stride: usize, keep: f64) {
    for (w, &word) in played.iter().enumerate() {
        for b in set_bits(word) {
            let k = w * 64 + b;
            kernels::scale(&mut t[k * stride..(k + 1) * stride], keep);
        }
    }
}

/// Max derived regret over one slot's `m × m` submatrix, walking only
/// the played columns plus one zero-column pass — `O(played · m + m)`.
///
/// Unplayed columns (and so their diagonal entries) are exactly `+0.0`
/// (slab invariant), so each would contribute the same value; the zero
/// pass computes it once with the same per-entry expression. Every term
/// is `≥ +0.0` (a `NaN` term folds to `0.0`), so neither duplicates nor
/// visit order change the max: the result is the scalar row-major scan's,
/// bit for bit. Rows are taken in [`DIAG_CHUNK`]-sized blocks so the
/// gathered diagonal fits the caller's fixed `diag` buffer at any `m`.
fn max_regret_in(
    t: &[f64],
    played: &[u64],
    stride: usize,
    m: usize,
    factor: f64,
    diag: &mut [f64],
) -> f64 {
    let played = &played[..m.div_ceil(64)];
    let played_count: usize = played.iter().map(|w| w.count_ones() as usize).sum();
    debug_assert!(played_count <= m, "played bit set past the slot's arity");
    let mut max = f64::NEG_INFINITY;
    for (w, &rows) in played.iter().enumerate() {
        let r0 = w * DIAG_CHUNK;
        let r1 = (r0 + DIAG_CHUNK).min(m);
        let diag = &mut diag[..r1 - r0];
        // Gather only the played diagonal entries; the rest are +0.0.
        diag.fill(0.0);
        for b in set_bits(rows) {
            diag[b] = t[(r0 + b) * stride + r0 + b];
        }
        for (cw, &cols) in played.iter().enumerate() {
            for b in set_bits(cols) {
                let col = (cw * 64 + b) * stride;
                max =
                    max.max(kernels::shifted_regret_max(&t[col + r0..col + r1], diag, factor));
            }
        }
        if played_count < m {
            max = max.max(kernels::zero_column_regret_max(diag, factor));
        }
    }
    if max.is_finite() {
        max.max(0.0)
    } else {
        0.0
    }
}

/// An arena of learner slots sharing flat columns (see the module docs
/// for the layout and the two usage modes).
#[derive(Debug, Clone)]
pub struct LearnerSlab {
    /// Scalars per probs/freq row; columns per T submatrix. Fixed at
    /// construction to the largest arity the slab must host.
    stride: usize,
    /// Bitmask words per slot (`⌈stride / 64⌉`).
    words: usize,
    t: Vec<f64>,
    probs: Vec<f64>,
    freq: Vec<f64>,
    played: Vec<u64>,
    arity: Vec<u32>,
    stage: Vec<u64>,
    pending: Vec<u32>,
    free: Vec<u32>,
    /// Slots handed out by [`alloc`](Self::alloc) from the free list
    /// instead of fresh storage (observability: free-list reuse means
    /// churn is not costing allocator traffic).
    reuses: u64,
}

impl LearnerSlab {
    /// An empty slab whose slots can host up to `stride` actions each.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    pub fn new(stride: usize) -> Self {
        Self::with_capacity(stride, 0)
    }

    /// An empty slab with **zeroed backing storage** for `slots` slots
    /// created up front. This is the fast construction path: one
    /// `alloc_zeroed` per column (the kernel maps the pages lazily, so
    /// nothing is committed until a column is actually written), and
    /// [`alloc`](Self::alloc) then only initialises the tiny per-slot
    /// probability prefix — no per-peer heap allocation, no eager
    /// `O(m²)` zero-fill per peer.
    pub fn with_capacity(stride: usize, slots: usize) -> Self {
        assert!(stride > 0, "slab stride must be positive");
        let words = stride.div_ceil(64);
        Self {
            stride,
            words,
            t: vec![0.0; slots * stride * stride],
            probs: vec![0.0; slots * stride],
            freq: vec![0.0; slots * stride],
            played: vec![0; slots * words],
            arity: Vec::with_capacity(slots),
            stage: Vec::with_capacity(slots),
            pending: Vec::with_capacity(slots),
            free: Vec::new(),
            reuses: 0,
        }
    }

    /// Ensures zeroed backing storage for `additional` more slots beyond
    /// the current count. On an **empty** slab this replaces the backing
    /// columns with one fresh `alloc_zeroed` each (lazily-mapped pages —
    /// the same fast path as [`with_capacity`](Self::with_capacity));
    /// on a live slab it falls back to an explicit zero-extending resize.
    pub fn reserve(&mut self, additional: usize) {
        let target = self.arity.len() + additional;
        if target * self.stride * self.stride <= self.t.len() {
            return;
        }
        if self.arity.is_empty() && self.free.is_empty() {
            self.t = vec![0.0; target * self.stride * self.stride];
            self.probs = vec![0.0; target * self.stride];
            self.freq = vec![0.0; target * self.stride];
            self.played = vec![0; target * self.words];
        } else {
            self.t.resize(target * self.stride * self.stride, 0.0);
            self.probs.resize(target * self.stride, 0.0);
            self.freq.resize(target * self.stride, 0.0);
            self.played.resize(target * self.words, 0);
        }
        self.arity.reserve(target - self.arity.len());
        self.stage.reserve(target - self.stage.len());
        self.pending.reserve(target - self.pending.len());
    }

    /// The fixed per-slot stride (maximum hostable arity).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Total slots, including free-listed ones.
    pub fn num_slots(&self) -> usize {
        self.arity.len()
    }

    /// Slots currently on the free list.
    pub fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// Cumulative count of [`alloc`](Self::alloc) calls satisfied from
    /// the free list (no fresh storage touched).
    pub fn free_list_reuses(&self) -> u64 {
        self.reuses
    }

    /// Allocates a slot initialised to the uniform fresh-learner state
    /// (`T = 0`, `p = f = 1/m`, stage 0, nothing pending), reusing the
    /// most recently freed slot if one exists.
    ///
    /// # Panics
    ///
    /// Panics if `num_actions` is zero or exceeds the stride.
    pub fn alloc(&mut self, num_actions: usize) -> u32 {
        assert!(num_actions > 0, "slab slot needs at least one action");
        assert!(num_actions <= self.stride, "action count {num_actions} exceeds slab stride");
        let slot = match self.free.pop() {
            Some(s) => {
                self.reuses += 1;
                s as usize
            }
            None => {
                let s = self.arity.len();
                // Grow the backing columns only past the pre-zeroed
                // region ([`with_capacity`]/[`reserve`]); inside it the
                // slot's storage already exists, untouched and zero.
                if (s + 1) * self.stride * self.stride > self.t.len() {
                    self.t.resize((s + 1) * self.stride * self.stride, 0.0);
                    self.probs.resize((s + 1) * self.stride, 0.0);
                    self.freq.resize((s + 1) * self.stride, 0.0);
                    self.played.resize((s + 1) * self.words, 0);
                }
                self.arity.push(0);
                self.stage.push(0);
                self.pending.push(NO_PENDING);
                s
            }
        };
        // Freed slots were wiped on release and fresh slots are zero, so
        // T and the bitmask need no work; only the uniform prefix does.
        self.arity[slot] = num_actions as u32;
        self.stage[slot] = 0;
        self.pending[slot] = NO_PENDING;
        let base = slot * self.stride;
        let p = 1.0 / num_actions as f64;
        self.probs[base..base + num_actions].fill(p);
        self.freq[base..base + num_actions].fill(p);
        slot as u32
    }

    /// Returns a slot to the free list, restoring the all-zero T /
    /// cleared-bitmask invariant `alloc` relies on.
    ///
    /// # Panics
    ///
    /// Panics if the slot is out of range or already free.
    pub fn release(&mut self, slot: u32) {
        let s = slot as usize;
        assert!(s < self.arity.len(), "slot out of range");
        assert!(self.arity[s] != 0, "slot released twice");
        self.wipe_t(s);
        self.arity[s] = 0;
        self.stage[s] = 0;
        self.pending[s] = NO_PENDING;
        self.free.push(slot);
    }

    /// Allocates a new slot carrying an exact copy of `src`'s state.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range or free.
    pub fn clone_slot(&mut self, src: u32) -> u32 {
        let s = src as usize;
        assert!(s < self.arity.len(), "slot out of range");
        let m = self.arity[s] as usize;
        assert!(m > 0, "cannot clone a freed slot");
        let dst = self.alloc(m) as usize;
        let stride = self.stride;
        for w in 0..self.words {
            let bits = self.played[s * self.words + w];
            self.played[dst * self.words + w] = bits;
            for b in set_bits(bits) {
                let k = w * 64 + b;
                let from = (s * stride + k) * stride;
                self.t.copy_within(from..from + stride, (dst * stride + k) * stride);
            }
        }
        self.probs.copy_within(s * stride..(s + 1) * stride, dst * stride);
        self.freq.copy_within(s * stride..(s + 1) * stride, dst * stride);
        self.stage[dst] = self.stage[s];
        self.pending[dst] = self.pending[s];
        dst as u32
    }

    /// Removes the given slots with an **order-preserving compaction**,
    /// mirroring `PeerStore::remove_slots` so slab slots stay aligned
    /// with store slots. Survivor data is copied by played columns only
    /// (`O(played · stride)` per move, not `O(stride²)`).
    ///
    /// # Panics
    ///
    /// Panics if `sorted` is not strictly increasing, any slot is out of
    /// range, or the slab has free-listed slots (compaction and the free
    /// list are the two mutually exclusive usage modes).
    pub fn remove_slots(&mut self, sorted: &[u32]) {
        if sorted.is_empty() {
            return;
        }
        assert!(self.free.is_empty(), "cannot compact a slab with free-listed slots");
        assert!(sorted.windows(2).all(|w| w[0] < w[1]), "slots must be sorted and unique");
        let n = self.arity.len();
        assert!((sorted[sorted.len() - 1] as usize) < n, "slot out of range");
        let stride = self.stride;
        let words = self.words;
        let mut next = 0usize;
        let mut write = 0usize;
        for read in 0..n {
            if next < sorted.len() && sorted[next] as usize == read {
                next += 1;
                continue;
            }
            if write != read {
                // The write slot holds stale data (its live copy, if any,
                // already moved further down): wipe its played columns,
                // then pull the survivor's played columns down.
                self.wipe_t(write);
                for w in 0..words {
                    let bits = self.played[read * words + w];
                    self.played[write * words + w] = bits;
                    for b in set_bits(bits) {
                        let k = w * 64 + b;
                        let from = (read * stride + k) * stride;
                        self.t.copy_within(from..from + stride, (write * stride + k) * stride);
                    }
                }
                self.probs.copy_within(read * stride..(read + 1) * stride, write * stride);
                self.freq.copy_within(read * stride..(read + 1) * stride, write * stride);
                self.arity[write] = self.arity[read];
                self.stage[write] = self.stage[read];
                self.pending[write] = self.pending[read];
            }
            write += 1;
        }
        // The tail slots `[write..n)` hold stale copies of removed or
        // relocated state. Wipe their played columns so the retained
        // backing region returns to the all-zero state `alloc` relies
        // on (probs/freq slack needs no wipe — `alloc` refills the
        // prefix it hands out). The flat columns keep their length: the
        // zeroed tail is reusable backing, not live slots.
        for s in write..n {
            self.wipe_t(s);
        }
        self.arity.truncate(write);
        self.stage.truncate(write);
        self.pending.truncate(write);
    }

    /// Reinitialises a slot for a new action count (channel switch) —
    /// same semantics (and panics) as `RthsState::reset_actions`.
    pub fn reset_actions(&mut self, slot: usize, num_actions: usize) {
        assert!(
            self.pending[slot] == NO_PENDING,
            "cannot reset actions with an observation pending"
        );
        assert!(num_actions > 0, "reset_actions requires at least one action");
        assert!(num_actions <= self.stride, "action count {num_actions} exceeds slab stride");
        self.wipe_t(slot);
        self.arity[slot] = num_actions as u32;
        self.stage[slot] = 0;
        let base = slot * self.stride;
        let p = 1.0 / num_actions as f64;
        self.probs[base..base + num_actions].fill(p);
        self.freq[base..base + num_actions].fill(p);
    }

    /// Zeroes the slot's played T columns and clears its bitmask.
    fn wipe_t(&mut self, slot: usize) {
        let stride = self.stride;
        let w_base = slot * self.words;
        for w in 0..self.words {
            let bits = self.played[w_base + w];
            self.played[w_base + w] = 0;
            for b in set_bits(bits) {
                let k = w * 64 + b;
                let from = (slot * stride + k) * stride;
                self.t[from..from + stride].fill(0.0);
            }
        }
    }

    /// The slot's action count.
    pub fn num_actions(&self, slot: usize) -> usize {
        self.arity[slot] as usize
    }

    /// The slot's current mixed strategy.
    pub fn probabilities(&self, slot: usize) -> &[f64] {
        let base = slot * self.stride;
        &self.probs[base..base + self.arity[slot] as usize]
    }

    /// The slot's recency-weighted play frequencies.
    pub fn play_frequencies(&self, slot: usize) -> &[f64] {
        let base = slot * self.stride;
        &self.freq[base..base + self.arity[slot] as usize]
    }

    /// Stages the slot has observed.
    pub fn stage(&self, slot: usize) -> u64 {
        self.stage[slot]
    }

    /// The slot's action awaiting observation, if any.
    pub fn pending_action(&self, slot: usize) -> Option<usize> {
        let p = self.pending[slot];
        (p != NO_PENDING).then_some(p as usize)
    }

    /// Proxy-matrix entry `T(j, k)` of a slot (tests/diagnostics).
    pub fn proxy(&self, slot: usize, j: usize, k: usize) -> f64 {
        let m = self.arity[slot] as usize;
        assert!(j < m && k < m, "proxy index out of range");
        self.t[(slot * self.stride + k) * self.stride + j]
    }

    /// Borrows every column as a [`SlabCols`] bundle for a sharded
    /// parallel phase.
    pub fn split(&mut self) -> SlabCols<'_> {
        // Only the live-slot prefix is handed out — the flat columns may
        // carry extra pre-zeroed backing beyond `num_slots()`.
        let n = self.arity.len();
        SlabCols {
            stride: self.stride,
            t: Strided::new(
                self.stride * self.stride,
                &mut self.t[..n * self.stride * self.stride],
            ),
            probs: Strided::new(self.stride, &mut self.probs[..n * self.stride]),
            freq: Strided::new(self.stride, &mut self.freq[..n * self.stride]),
            played: Strided::new(self.words, &mut self.played[..n * self.words]),
            arity: &mut self.arity,
            stage: &mut self.stage,
            pending: &mut self.pending,
        }
    }

    /// Samples an action for a slot (see `RthsState::select_action`).
    pub fn select_action(&mut self, slot: usize, rng: &mut dyn RngCore) -> usize {
        self.split().select_action(slot, rng)
    }

    /// Feeds a slot's pending utility through the full update (see
    /// `RthsState::observe`).
    pub fn observe(
        &mut self,
        slot: usize,
        config: &RthsConfig,
        utility: f64,
        row_scratch: &mut Vec<f64>,
    ) {
        self.split().observe(slot, config, utility, row_scratch);
    }

    /// Decays every slot's played T columns by `keep = 1 − ε` once —
    /// the batched counterpart of the per-observe decay, for callers
    /// that then use [`SlabCols::observe_predecayed`]. Returns the
    /// number of T columns touched (observability; ignorable).
    pub fn decay_all(&mut self, keep: f64) -> u64 {
        self.split().decay(keep)
    }

    /// Largest derived regret of a slot — `O(played · m + m)`, with the
    /// diagonal gathered into a fixed stack buffer (no allocation).
    pub fn max_regret(&self, slot: usize, config: &RthsConfig) -> f64 {
        let m = self.arity[slot] as usize;
        let base = slot * self.stride * self.stride;
        let factor = factor_for(config, self.stage[slot]);
        max_regret_in(
            &self.t[base..base + self.stride * self.stride],
            &self.played[slot * self.words..(slot + 1) * self.words],
            self.stride,
            m,
            factor,
            &mut [0.0; DIAG_CHUNK],
        )
    }
}

/// All of a [`LearnerSlab`]'s columns borrowed as a splittable bundle:
/// the [`ShardCols`] implementation hands each parallel shard a disjoint
/// contiguous slot range of **every** column, so the store's phases can
/// run slab-backed learners with the same zero-sharing contract as the
/// rest of the SoA columns. Slot indices on the methods are **relative
/// to the chunk** (shard-local), like `Strided::row`.
#[derive(Debug)]
pub struct SlabCols<'a> {
    stride: usize,
    t: Strided<'a, f64>,
    probs: Strided<'a, f64>,
    freq: Strided<'a, f64>,
    played: Strided<'a, u64>,
    arity: &'a mut [u32],
    stage: &'a mut [u64],
    pending: &'a mut [u32],
}

impl ShardCols for SlabCols<'_> {
    fn shard_split(self, mid: usize) -> (Self, Self) {
        let (t0, t1) = self.t.shard_split(mid);
        let (p0, p1) = self.probs.shard_split(mid);
        let (f0, f1) = self.freq.shard_split(mid);
        let (w0, w1) = self.played.shard_split(mid);
        let (a0, a1) = self.arity.split_at_mut(mid);
        let (s0, s1) = self.stage.split_at_mut(mid);
        let (g0, g1) = self.pending.split_at_mut(mid);
        (
            SlabCols {
                stride: self.stride,
                t: t0,
                probs: p0,
                freq: f0,
                played: w0,
                arity: a0,
                stage: s0,
                pending: g0,
            },
            SlabCols {
                stride: self.stride,
                t: t1,
                probs: p1,
                freq: f1,
                played: w1,
                arity: a1,
                stage: s1,
                pending: g1,
            },
        )
    }
}

impl SlabCols<'_> {
    /// Slots in this chunk.
    pub fn len(&self) -> usize {
        self.arity.len()
    }

    /// Whether the chunk is empty.
    pub fn is_empty(&self) -> bool {
        self.arity.is_empty()
    }

    /// Decays every slot's played T columns by `keep` once. Valid as a
    /// hoisted batch before a round of [`observe_predecayed`]
    /// (`Self::observe_predecayed`) calls exactly when each slot observes
    /// exactly once in the round: the decay commutes bitwise with every
    /// other slot's update (disjoint state) and with this slot's own
    /// select (which reads only `probs`), so hoisting it to the top of
    /// the round leaves each slot's decay→rank-1 order intact.
    ///
    /// Returns the number of T columns touched (the popcount of the
    /// played bitmasks) — the per-shard `slab_columns_touched`
    /// observability counter. The count is derived state, never an
    /// input: ignoring it changes nothing.
    pub fn decay(&mut self, keep: f64) -> u64 {
        let mut touched = 0u64;
        for i in 0..self.arity.len() {
            let t = self.t.row(i);
            let played = self.played.row(i);
            touched += played.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
            decay_columns(t, played, self.stride, keep);
        }
        touched
    }

    /// Samples an action from slot `i`'s strategy, recording it pending —
    /// float-identical to `RthsState::select_action`.
    ///
    /// # Panics
    ///
    /// Panics if an observation is already pending.
    pub fn select_action(&mut self, i: usize, rng: &mut dyn RngCore) -> usize {
        assert!(
            self.pending[i] == NO_PENDING,
            "select_action called with an observation pending"
        );
        let m = self.arity[i] as usize;
        let probs = &self.probs.row(i)[..m];
        let u: f64 = rand::Rng::gen(rng);
        let mut acc = 0.0;
        let mut chosen = m - 1;
        for (a, &p) in probs.iter().enumerate() {
            acc += p;
            if u < acc {
                chosen = a;
                break;
            }
        }
        self.pending[i] = chosen as u32;
        chosen
    }

    /// Full observe for slot `i` — the slab counterpart of
    /// `RthsState::observe`, bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if no action is pending or `utility` is not finite.
    pub fn observe(
        &mut self,
        i: usize,
        config: &RthsConfig,
        utility: f64,
        row_scratch: &mut Vec<f64>,
    ) {
        self.observe_inner(i, config, utility, row_scratch, false);
    }

    /// Observe for a slot whose exponential decay was already applied by
    /// a batched [`decay`](Self::decay) this round.
    pub fn observe_predecayed(
        &mut self,
        i: usize,
        config: &RthsConfig,
        utility: f64,
        row_scratch: &mut Vec<f64>,
    ) {
        self.observe_inner(i, config, utility, row_scratch, true);
    }

    fn observe_inner(
        &mut self,
        i: usize,
        config: &RthsConfig,
        utility: f64,
        row_scratch: &mut Vec<f64>,
        predecayed: bool,
    ) {
        assert!(utility.is_finite(), "utility must be finite, got {utility}");
        assert!(self.pending[i] != NO_PENDING, "observe called without a pending action");
        let j = self.pending[i] as usize;
        self.pending[i] = NO_PENDING;
        self.stage[i] += 1;
        let stage = self.stage[i];
        let m = self.arity[i] as usize;
        debug_assert_eq!(m, config.num_actions(), "slot arity and config disagree");
        let stride = self.stride;
        let t = self.t.row(i);
        let probs = self.probs.row(i);
        let freq = self.freq.row(i);
        let played = self.played.row(i);

        // Eq. (3-5): T ← decay(T); column j += (u/pⁿ(j)) · pⁿ.
        if !predecayed && config.recency() == RecencyMode::Exponential {
            decay_columns(t, played, stride, 1.0 - config.epsilon());
        }
        let p_j = probs[j];
        debug_assert!(p_j > 0.0, "played action had zero probability");
        let scale = utility / p_j;
        kernels::axpy(&mut t[j * stride..j * stride + m], scale, &probs[..m]);
        played[j / 64] |= 1 << (j % 64);

        // Play-frequency average (same weighting scheme as T).
        match config.recency() {
            RecencyMode::Exponential => {
                let eps = config.epsilon();
                for (a, f) in freq[..m].iter_mut().enumerate() {
                    *f = (1.0 - eps) * *f + if a == j { eps } else { 0.0 };
                }
            }
            RecencyMode::PaperLiteral | RecencyMode::Uniform => {
                let n = stage as f64;
                for (a, f) in freq[..m].iter_mut().enumerate() {
                    let count = *f * (n - 1.0) + if a == j { 1.0 } else { 0.0 };
                    *f = count / n;
                }
            }
        }

        // Eq. (3-6) for the played row: element j of each column — a
        // strided gather in this layout, same values and visit order as
        // the scalar row walk.
        let factor = factor_for(config, stage);
        let t_jj = t[j * stride + j];
        row_scratch.clear();
        for k in 0..m {
            row_scratch.push(if j == k {
                0.0
            } else {
                (factor * (t[k * stride + j] - t_jj)).max(0.0)
            });
        }
        if config.conditional() {
            let floor = policy::exploration_floor(m, config.delta());
            let f_j = freq[j].max(floor);
            for r in row_scratch.iter_mut() {
                *r /= f_j;
            }
        }
        policy::update_probabilities(
            &mut probs[..m],
            j,
            row_scratch,
            config.delta(),
            config.mu(),
        );
    }

    /// Largest derived regret of slot `i` — `O(played · m + m)`, with a
    /// caller-provided diagonal scratch (grown once to one chunk, then
    /// reused) so steady-state phases allocate nothing.
    pub fn max_regret(&mut self, i: usize, config: &RthsConfig, diag: &mut Vec<f64>) -> f64 {
        let m = self.arity[i] as usize;
        let factor = factor_for(config, self.stage[i]);
        let stride = self.stride;
        diag.resize(DIAG_CHUNK, 0.0);
        max_regret_in(self.t.row(i), self.played.row(i), stride, m, factor, diag)
    }

    /// Slot `i`'s current mixed strategy.
    pub fn probabilities(&mut self, i: usize) -> &[f64] {
        let m = self.arity[i] as usize;
        &self.probs.row(i)[..m]
    }
}

/// A shared, mutex-guarded slab handle for owners that hold their
/// learner by value (the reactor's peer actors).
pub type SharedSlab = Arc<Mutex<LearnerSlab>>;

/// One slab slot behind the [`Learner`] trait: the reactor backend packs
/// all same-mailbox-shard peers' state into one [`SharedSlab`] (same-
/// shard actors run sequentially on one worker, so the mutex is
/// uncontended) and hands each `Peer` a `SlabLearner`. The strategy is
/// mirrored into a local cache after every update so
/// [`probabilities`](Learner::probabilities) can return a borrow without
/// holding the lock.
#[derive(Debug)]
pub struct SlabLearner {
    slab: SharedSlab,
    slot: u32,
    config: RthsConfig,
    probs: Vec<f64>,
    scratch: Vec<f64>,
}

impl SlabLearner {
    /// Allocates a fresh uniform slot in `slab` for `config`'s action
    /// count.
    pub fn new(slab: SharedSlab, config: RthsConfig) -> Self {
        let m = config.num_actions();
        let slot = slab.lock().expect("learner slab mutex poisoned").alloc(m);
        Self { slab, slot, config, probs: vec![1.0 / m as f64; m], scratch: Vec::new() }
    }

    /// The slab slot this learner owns.
    pub fn slot(&self) -> u32 {
        self.slot
    }

    /// The learner's configuration.
    pub fn config(&self) -> &RthsConfig {
        &self.config
    }
}

impl Clone for SlabLearner {
    fn clone(&self) -> Self {
        let slot = self.slab.lock().expect("learner slab mutex poisoned").clone_slot(self.slot);
        Self {
            slab: Arc::clone(&self.slab),
            slot,
            config: self.config.clone(),
            probs: self.probs.clone(),
            scratch: Vec::new(),
        }
    }
}

impl Drop for SlabLearner {
    fn drop(&mut self) {
        // Return the slot for reuse; skip quietly if another owner
        // panicked with the lock held (the slab dies with the runtime).
        if let Ok(mut slab) = self.slab.lock() {
            slab.release(self.slot);
        }
    }
}

impl Learner for SlabLearner {
    fn num_actions(&self) -> usize {
        self.probs.len()
    }

    fn probabilities(&self) -> &[f64] {
        &self.probs
    }

    fn select_action(&mut self, rng: &mut dyn RngCore) -> usize {
        self.slab
            .lock()
            .expect("learner slab mutex poisoned")
            .select_action(self.slot as usize, rng)
    }

    fn observe(&mut self, utility: f64) {
        let mut slab = self.slab.lock().expect("learner slab mutex poisoned");
        slab.observe(self.slot as usize, &self.config, utility, &mut self.scratch);
        self.probs.copy_from_slice(slab.probabilities(self.slot as usize));
    }

    fn max_regret(&self) -> f64 {
        self.slab
            .lock()
            .expect("learner slab mutex poisoned")
            .max_regret(self.slot as usize, &self.config)
    }

    fn stage(&self) -> u64 {
        self.slab.lock().expect("learner slab mutex poisoned").stage(self.slot as usize)
    }

    fn pending_action(&self) -> Option<usize> {
        self.slab
            .lock()
            .expect("learner slab mutex poisoned")
            .pending_action(self.slot as usize)
    }

    fn reset_actions(&mut self, num_actions: usize) {
        self.config = self
            .config
            .with_num_actions(num_actions)
            .expect("reset_actions requires at least one action");
        let mut slab = self.slab.lock().expect("learner slab mutex poisoned");
        // The slot keeps its stride, so a reset only works up to the
        // slab's stride — same restriction as the arity the slab was
        // sized for.
        slab.reset_actions(self.slot as usize, num_actions);
        self.probs = vec![1.0 / num_actions as f64; num_actions];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compact::RthsState;
    use crate::recursive::RthsLearner;
    use rand::SeedableRng;

    fn config(m: usize, recency: RecencyMode, conditional: bool) -> RthsConfig {
        RthsConfig::builder(m)
            .epsilon(0.05)
            .delta(0.1)
            .mu(150.0)
            .recency(recency)
            .conditional(conditional)
            .build()
            .unwrap()
    }

    /// The slab must replay the scalar oracle bit-for-bit in every
    /// averaging mode — with slots interleaved so the strided layout
    /// (not just slot 0) is exercised, and a stride wider than the
    /// arity so the slack region is proven inert.
    #[test]
    fn slab_matches_scalar_state_bitwise() {
        for recency in
            [RecencyMode::Exponential, RecencyMode::PaperLiteral, RecencyMode::Uniform]
        {
            for conditional in [false, true] {
                let cfg = config(4, recency, conditional);
                let mut slab = LearnerSlab::new(7);
                let slots: Vec<u32> = (0..3).map(|_| slab.alloc(4)).collect();
                let mut oracles: Vec<RthsState> =
                    (0..3).map(|_| RthsState::new(&cfg)).collect();
                let mut rngs_a: Vec<_> =
                    (0..3).map(|p| rand::rngs::StdRng::seed_from_u64(9 + p)).collect();
                let mut rngs_b: Vec<_> =
                    (0..3).map(|p| rand::rngs::StdRng::seed_from_u64(9 + p)).collect();
                let mut scratch = Vec::new();
                let mut oracle_scratch = Vec::new();
                for s in 0..200u64 {
                    for (p, &slot) in slots.iter().enumerate() {
                        let a = slab.select_action(slot as usize, &mut rngs_a[p]);
                        let b = oracles[p].select_action(&mut rngs_b[p]);
                        assert_eq!(a, b, "{recency:?} action diverged at stage {s}");
                        let u = ((a * 37 + (s as usize) * (p + 1)) % 11) as f64 * 13.0;
                        slab.observe(slot as usize, &cfg, u, &mut scratch);
                        oracles[p].observe(&cfg, u, &mut oracle_scratch);
                        for (k, (x, y)) in slab
                            .probabilities(slot as usize)
                            .iter()
                            .zip(oracles[p].probabilities())
                            .enumerate()
                        {
                            assert_eq!(
                                x.to_bits(),
                                y.to_bits(),
                                "{recency:?}/cond={conditional} probs[{k}] diverged at \
                                 stage {s} slot {p}"
                            );
                        }
                        assert_eq!(
                            slab.max_regret(slot as usize, &cfg).to_bits(),
                            oracles[p].max_regret(&cfg).to_bits(),
                            "{recency:?} max_regret diverged at stage {s} slot {p}"
                        );
                    }
                }
            }
        }
    }

    /// Asserts slot `slot` and its scalar oracle agree bit for bit on the
    /// strategy and the regret estimate.
    fn assert_matches(
        slab: &LearnerSlab,
        slot: usize,
        cfg: &RthsConfig,
        oracle: &RthsState,
        ctx: &str,
    ) {
        assert_eq!(slab.stage(slot), oracle.stage(), "{ctx}: stage");
        for (k, (x, y)) in
            slab.probabilities(slot).iter().zip(oracle.probabilities()).enumerate()
        {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: probs[{k}]");
        }
        assert_eq!(
            slab.max_regret(slot, cfg).to_bits(),
            oracle.max_regret(cfg).to_bits(),
            "{ctx}: max_regret"
        );
    }

    /// A stage's utility from the action played and the stage index.
    type Utility = fn(usize, u64) -> f64;

    /// Drives a slot and its scalar oracle in lockstep (one shared seed
    /// per side), checking them before the first stage and after every
    /// one. Returns the actions played.
    #[allow(clippy::too_many_arguments)]
    fn lockstep(
        slab: &mut LearnerSlab,
        slot: usize,
        cfg: &RthsConfig,
        oracle: &mut RthsState,
        seed: u64,
        stages: u64,
        utility: Utility,
        label: &str,
    ) -> Vec<usize> {
        let mut rng_a = rand::rngs::StdRng::seed_from_u64(seed);
        let mut rng_b = rand::rngs::StdRng::seed_from_u64(seed);
        let mut scratch = Vec::new();
        let mut actions = Vec::new();
        assert_matches(slab, slot, cfg, oracle, &format!("{label} before stage 0"));
        for s in 0..stages {
            let a = slab.select_action(slot, &mut rng_a);
            assert_eq!(a, oracle.select_action(&mut rng_b), "{label}: action at stage {s}");
            let u = utility(a, s);
            slab.observe(slot, cfg, u, &mut scratch);
            oracle.observe(cfg, u, &mut scratch);
            assert_matches(slab, slot, cfg, oracle, &format!("{label} stage {s}"));
            actions.push(a);
        }
        actions
    }

    /// The played-column estimate scan against the dense scalar scan
    /// while only one to a few dozen of `m = 70` columns are played — a
    /// two-word bitmask in a stride-130 slab — for positive, zero,
    /// mixed-sign and negative utilities in every averaging mode. The
    /// `m = 3` arm plays every column early, so it pins the other side
    /// of the boundary: with nothing unplayed, no zero column may enter
    /// the max (it would win whenever the diagonal is negative).
    #[test]
    fn sparse_played_estimate_matches_scalar_state_bitwise() {
        let utilities: [(&str, Utility); 4] = [
            ("positive", |a, s| ((a * 37 + s as usize * 5) % 11) as f64 * 13.0 + 0.5),
            ("zero", |_, _| 0.0),
            ("signed", |a, s| ((a * 29 + s as usize * 3) % 9) as f64 * 17.0 - 70.0),
            ("negative", |a, s| -(((a * 13 + s as usize) % 7) as f64) * 11.0 - 1.0),
        ];
        for (m, recency, conditional) in [3, 70].into_iter().flat_map(|m| {
            [RecencyMode::Exponential, RecencyMode::PaperLiteral, RecencyMode::Uniform]
                .into_iter()
                .flat_map(move |r| [(m, r, false), (m, r, true)])
        }) {
            let cfg = config(m, recency, conditional);
            for (name, utility) in utilities {
                let mut slab = LearnerSlab::new(130);
                let slots: Vec<usize> = (0..3).map(|_| slab.alloc(m) as usize).collect();
                let mut oracles: Vec<RthsState> =
                    slots.iter().map(|_| RthsState::new(&cfg)).collect();
                let mut high = false;
                for (p, &slot) in slots.iter().enumerate() {
                    let label = format!("m={m}/{recency:?}/cond={conditional}/{name} slot {p}");
                    let actions = lockstep(
                        &mut slab,
                        slot,
                        &cfg,
                        &mut oracles[p],
                        40 + p as u64,
                        24,
                        utility,
                        &label,
                    );
                    high |= actions.iter().any(|&a| a >= 64);
                }
                assert!(m < 64 || high, "no column in the second bitmask word was played");
                // The earlier slots are unchanged by their neighbours.
                for (p, &slot) in slots.iter().enumerate() {
                    assert_matches(&slab, slot, &cfg, &oracles[p], "after neighbours");
                }
            }
        }
    }

    /// The sparse estimate stays exact across every slot lifecycle
    /// operation that moves or wipes played columns: `clone_slot`,
    /// `reset_actions` to a smaller arity, `release` + `alloc` reuse, and
    /// `remove_slots` compaction.
    #[test]
    fn sparse_estimate_survives_slot_lifecycle_bitwise() {
        let cfg = config(70, RecencyMode::Exponential, true);
        let u = |a: usize, s: u64| ((a * 7 + s as usize) % 13) as f64 * 9.0 - 20.0;
        let mut slab = LearnerSlab::new(130);
        let a = slab.alloc(70) as usize;
        let b = slab.alloc(70) as usize;
        let mut oracle_a = RthsState::new(&cfg);
        let mut oracle_b = RthsState::new(&cfg);
        lockstep(&mut slab, a, &cfg, &mut oracle_a, 1, 12, u, "a");
        lockstep(&mut slab, b, &cfg, &mut oracle_b, 2, 12, u, "b");

        let c = slab.clone_slot(a as u32) as usize;
        let mut oracle_c = oracle_a.clone();
        lockstep(&mut slab, c, &cfg, &mut oracle_c, 3, 10, u, "clone");
        assert_matches(&slab, a, &cfg, &oracle_a, "clone source");

        let small = cfg.with_num_actions(5).unwrap();
        slab.reset_actions(b, 5);
        oracle_b.reset_actions(5);
        lockstep(&mut slab, b, &small, &mut oracle_b, 4, 10, u, "reset to 5");

        slab.release(a as u32);
        assert_eq!(slab.alloc(70) as usize, a, "freed slot must be reused");
        let mut fresh = RthsState::new(&cfg);
        lockstep(&mut slab, a, &cfg, &mut fresh, 5, 10, u, "reused");
        assert_matches(&slab, c, &cfg, &oracle_c, "clone after reuse");

        // Slot-aligned mode: compaction pulls survivors' played columns
        // down over slots whose own played columns differ.
        let mut slab = LearnerSlab::new(130);
        let mut oracles: Vec<RthsState> = (0..5).map(|_| RthsState::new(&cfg)).collect();
        for (i, oracle) in oracles.iter_mut().enumerate() {
            slab.alloc(70);
            lockstep(&mut slab, i, &cfg, oracle, 10 + i as u64, 3 + 2 * i as u64, u, "pre");
        }
        let removed = [0u32, 2];
        slab.remove_slots(&removed);
        let mut survivors: Vec<RthsState> = (0u32..)
            .zip(oracles)
            .filter_map(|(i, oracle)| (!removed.contains(&i)).then_some(oracle))
            .collect();
        for (slot, oracle) in survivors.iter_mut().enumerate() {
            let label = format!("compacted slot {slot}");
            lockstep(&mut slab, slot, &cfg, oracle, 20 + slot as u64, 6, u, &label);
        }
    }

    /// Hoisting the exponential decay to one batched pass per round is
    /// bit-identical to the inline per-observe decay when every slot
    /// observes exactly once per round — the store's observe-phase
    /// pattern.
    #[test]
    fn batched_decay_matches_inline_decay_bitwise() {
        let cfg = config(5, RecencyMode::Exponential, false);
        let mut inline = LearnerSlab::new(5);
        let mut batched = LearnerSlab::new(5);
        for _ in 0..4 {
            inline.alloc(5);
            batched.alloc(5);
        }
        let mut rngs_a: Vec<_> =
            (0..4).map(|p| rand::rngs::StdRng::seed_from_u64(31 + p)).collect();
        let mut rngs_b: Vec<_> =
            (0..4).map(|p| rand::rngs::StdRng::seed_from_u64(31 + p)).collect();
        let mut scratch = Vec::new();
        let keep = 1.0 - cfg.epsilon();
        for round in 0..150u64 {
            let mut picks = Vec::new();
            for i in 0..4usize {
                let a = inline.select_action(i, &mut rngs_a[i]);
                let b = batched.select_action(i, &mut rngs_b[i]);
                assert_eq!(a, b);
                picks.push(a);
            }
            {
                let mut cols = batched.split();
                cols.decay(keep);
                for (i, &pick) in picks.iter().enumerate() {
                    let u = ((pick * 13 + round as usize) % 7) as f64 * 21.0;
                    cols.observe_predecayed(i, &cfg, u, &mut scratch);
                }
            }
            for (i, &pick) in picks.iter().enumerate() {
                let u = ((pick * 13 + round as usize) % 7) as f64 * 21.0;
                inline.observe(i, &cfg, u, &mut scratch);
                for (x, y) in inline.probabilities(i).iter().zip(batched.probabilities(i)) {
                    assert_eq!(x.to_bits(), y.to_bits(), "diverged at round {round} slot {i}");
                }
            }
        }
    }

    /// Free-list churn: releasing a slot and allocating again reuses it,
    /// and survivors replay their scalar mirrors bit-for-bit across the
    /// churn (the `departure_does_not_perturb_survivors` pinning style).
    #[test]
    fn release_reuses_slot_without_perturbing_survivors() {
        let cfg = config(3, RecencyMode::Exponential, false);
        let mut slab = LearnerSlab::new(3);
        let slots: Vec<u32> = (0..4).map(|_| slab.alloc(3)).collect();
        assert_eq!(slots, vec![0, 1, 2, 3]);
        let mut mirrors: Vec<RthsState> = (0..4).map(|_| RthsState::new(&cfg)).collect();
        let mut rngs: Vec<_> =
            (0..4).map(|p| rand::rngs::StdRng::seed_from_u64(100 + p)).collect();
        let mut mirror_rngs: Vec<_> =
            (0..4).map(|p| rand::rngs::StdRng::seed_from_u64(100 + p)).collect();
        let mut scratch = Vec::new();
        let drive = |slab: &mut LearnerSlab,
                     mirrors: &mut Vec<RthsState>,
                     rngs: &mut Vec<rand::rngs::StdRng>,
                     mirror_rngs: &mut Vec<rand::rngs::StdRng>,
                     scratch: &mut Vec<f64>,
                     live: &[usize],
                     stages: u64| {
            for s in 0..stages {
                for &i in live {
                    let a = slab.select_action(i, &mut rngs[i]);
                    let b = mirrors[i].select_action(&mut mirror_rngs[i]);
                    assert_eq!(a, b);
                    let u = ((a + s as usize * i.max(1)) % 5) as f64 * 11.0;
                    slab.observe(i, &cfg, u, scratch);
                    mirrors[i].observe(&cfg, u, scratch);
                }
            }
        };
        drive(
            &mut slab,
            &mut mirrors,
            &mut rngs,
            &mut mirror_rngs,
            &mut scratch,
            &[0, 1, 2, 3],
            40,
        );

        slab.release(2);
        assert_eq!(slab.free_slots(), 1);
        let reused = slab.alloc(3);
        assert_eq!(reused, 2, "freed slot must be reused");
        assert_eq!(slab.free_slots(), 0);
        // The reused slot is a fresh uniform learner.
        assert_eq!(slab.probabilities(2), &[1.0 / 3.0; 3]);
        assert_eq!(slab.stage(2), 0);
        mirrors[2] = RthsState::new(&cfg);
        rngs[2] = rand::rngs::StdRng::seed_from_u64(777);
        mirror_rngs[2] = rand::rngs::StdRng::seed_from_u64(777);

        // Survivors and the reused slot all keep replaying their mirrors.
        drive(
            &mut slab,
            &mut mirrors,
            &mut rngs,
            &mut mirror_rngs,
            &mut scratch,
            &[0, 1, 2, 3],
            40,
        );
        for (i, mirror) in mirrors.iter().enumerate() {
            for (x, y) in slab.probabilities(i).iter().zip(mirror.probabilities()) {
                assert_eq!(x.to_bits(), y.to_bits(), "slot {i} diverged after churn");
            }
        }
    }

    /// Order-preserving compaction: survivors keep their exact state and
    /// continue bit-for-bit, mirroring the store's `remove_slots`.
    #[test]
    fn remove_slots_compacts_without_perturbing_survivors() {
        let cfg = config(4, RecencyMode::Exponential, true);
        let mut slab = LearnerSlab::new(4);
        for _ in 0..5 {
            slab.alloc(4);
        }
        let mut mirrors: Vec<RthsState> = (0..5).map(|_| RthsState::new(&cfg)).collect();
        let mut rngs: Vec<_> =
            (0..5).map(|p| rand::rngs::StdRng::seed_from_u64(500 + p)).collect();
        let mut mirror_rngs: Vec<_> =
            (0..5).map(|p| rand::rngs::StdRng::seed_from_u64(500 + p)).collect();
        let mut scratch = Vec::new();
        for s in 0..60u64 {
            for i in 0..5usize {
                let a = slab.select_action(i, &mut rngs[i]);
                let b = mirrors[i].select_action(&mut mirror_rngs[i]);
                assert_eq!(a, b);
                let u = ((a + s as usize) % 9) as f64 * 7.0;
                slab.observe(i, &cfg, u, &mut scratch);
                mirrors[i].observe(&cfg, u, &mut scratch);
            }
        }
        let survivors = [0usize, 2, 4];
        let before: Vec<Vec<u64>> = survivors
            .iter()
            .map(|&i| slab.probabilities(i).iter().map(|p| p.to_bits()).collect())
            .collect();
        slab.remove_slots(&[1, 3]);
        assert_eq!(slab.num_slots(), 3);
        for (new_slot, (&old_slot, bits)) in survivors.iter().zip(&before).enumerate() {
            let after: Vec<u64> =
                slab.probabilities(new_slot).iter().map(|p| p.to_bits()).collect();
            assert_eq!(&after, bits, "slot {old_slot}→{new_slot} state changed");
            assert_eq!(slab.stage(new_slot), mirrors[old_slot].stage());
            assert_eq!(
                slab.max_regret(new_slot, &cfg).to_bits(),
                mirrors[old_slot].max_regret(&cfg).to_bits()
            );
        }
    }

    #[test]
    fn clone_slot_copies_state_exactly() {
        let cfg = config(3, RecencyMode::Uniform, false);
        let mut slab = LearnerSlab::new(3);
        let a = slab.alloc(3) as usize;
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let mut scratch = Vec::new();
        for s in 0..30u64 {
            let act = slab.select_action(a, &mut rng);
            slab.observe(a, &cfg, ((act + s as usize) % 4) as f64 * 5.0, &mut scratch);
        }
        let b = slab.clone_slot(a as u32) as usize;
        assert_ne!(a, b);
        assert_eq!(slab.stage(a), slab.stage(b));
        for (x, y) in slab.probabilities(a).iter().zip(slab.probabilities(b)) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        for j in 0..3 {
            for k in 0..3 {
                assert_eq!(slab.proxy(a, j, k).to_bits(), slab.proxy(b, j, k).to_bits());
            }
        }
        assert_eq!(slab.max_regret(a, &cfg).to_bits(), slab.max_regret(b, &cfg).to_bits());
    }

    #[test]
    fn reset_matches_fresh_slot() {
        let cfg = config(3, RecencyMode::Exponential, false);
        let mut slab = LearnerSlab::new(5);
        let slot = slab.alloc(3) as usize;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut scratch = Vec::new();
        for _ in 0..10 {
            let _ = slab.select_action(slot, &mut rng);
            slab.observe(slot, &cfg, 5.0, &mut scratch);
        }
        slab.reset_actions(slot, 5);
        assert_eq!(slab.num_actions(slot), 5);
        assert_eq!(slab.stage(slot), 0);
        assert_eq!(slab.probabilities(slot), &[0.2; 5]);
        assert_eq!(slab.play_frequencies(slot), &[0.2; 5]);
        for j in 0..5 {
            for k in 0..5 {
                assert_eq!(slab.proxy(slot, j, k), 0.0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "observation pending")]
    fn double_select_panics() {
        let mut slab = LearnerSlab::new(2);
        let slot = slab.alloc(2) as usize;
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let _ = slab.select_action(slot, &mut rng);
        let _ = slab.select_action(slot, &mut rng);
    }

    #[test]
    #[should_panic(expected = "without a pending action")]
    fn observe_without_select_panics() {
        let cfg = config(2, RecencyMode::Exponential, false);
        let mut slab = LearnerSlab::new(2);
        let slot = slab.alloc(2) as usize;
        slab.observe(slot, &cfg, 1.0, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "cannot compact a slab with free-listed slots")]
    fn compaction_rejects_free_list_mode() {
        let mut slab = LearnerSlab::new(2);
        slab.alloc(2);
        slab.alloc(2);
        slab.release(0);
        slab.remove_slots(&[1]);
    }

    /// The trait wrapper must behave exactly like the standalone learner,
    /// including across a reset.
    #[test]
    fn slab_learner_replays_wrapped_learner_bitwise() {
        let cfg = config(4, RecencyMode::Exponential, false);
        let slab: SharedSlab = Arc::new(Mutex::new(LearnerSlab::new(6)));
        let mut wrapped = RthsLearner::new(cfg.clone());
        let mut learner = SlabLearner::new(Arc::clone(&slab), cfg);
        let mut rng_a = rand::rngs::StdRng::seed_from_u64(42);
        let mut rng_b = rand::rngs::StdRng::seed_from_u64(42);
        for phase in 0..2 {
            for s in 0..120u64 {
                let a = wrapped.select_action(&mut rng_a);
                let b = learner.select_action(&mut rng_b);
                assert_eq!(a, b, "phase {phase} stage {s}");
                assert_eq!(learner.pending_action(), Some(b));
                let u = ((a * 31 + s as usize) % 13) as f64 * 3.0;
                wrapped.observe(u);
                learner.observe(u);
                for (x, y) in wrapped.probabilities().iter().zip(learner.probabilities()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "phase {phase} stage {s}");
                }
                assert_eq!(wrapped.max_regret().to_bits(), learner.max_regret().to_bits());
                assert_eq!(wrapped.stage(), learner.stage());
            }
            // Channel switch mid-life: both sides reset to 6 actions.
            wrapped.reset_actions(6);
            learner.reset_actions(6);
            assert_eq!(learner.num_actions(), 6);
        }
        // Dropping the learner returns its slot to the free list.
        drop(learner);
        assert_eq!(slab.lock().unwrap().free_slots(), 1);
    }

    /// Cloning a `SlabLearner` allocates an independent slot.
    #[test]
    fn slab_learner_clone_is_independent() {
        let cfg = config(3, RecencyMode::Exponential, false);
        let slab: SharedSlab = Arc::new(Mutex::new(LearnerSlab::new(3)));
        let mut a = SlabLearner::new(Arc::clone(&slab), cfg);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        for _ in 0..20 {
            let _ = a.select_action(&mut rng);
            a.observe(10.0);
        }
        let mut b = a.clone();
        assert_ne!(a.slot(), b.slot());
        assert_eq!(a.stage(), b.stage());
        let _ = b.select_action(&mut rng);
        b.observe(99.0);
        assert_ne!(a.stage(), b.stage(), "clone shares state with the original");
    }
}
