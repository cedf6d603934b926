//! Outside microbenchmarks for the layers that run untraced inside the
//! reactor's mailbox drain: the learner-slab kernels and the wire codec.
//!
//! Both check their own work bit for bit, so a faster kernel or codec
//! cannot skip work: the slab checksum must equal the scalar learner's
//! (the oracle `bench_kernel` also uses), and every decoded frame must
//! re-encode to the exact bytes it came from.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rths_core::{LearnerSlab, RthsConfig, RthsState};
use rths_net::wire::{decode_frame, encode_frame, Frame};
use rths_net::NetMsg;
use rths_reactor::bridge::{Reply, Step};
use rths_reactor::{ActorId, RemoteBatch, SHARD_SPAN};

use crate::clock::now;
use crate::workloads::{REACTOR_HELPERS, REACTOR_PEERS};

/// Learners per slab: enough that layout matters, as in `bench_kernel`.
const SLOTS: usize = 256;

/// Per-operation kernel times at one arity.
#[derive(Debug, Clone, Copy)]
pub struct KernelTimes {
    pub observe_ns: f64,
    pub select_ns: f64,
    pub max_regret_ns: f64,
}

fn kernel_config(m: usize) -> RthsConfig {
    RthsConfig::builder(m).mu(4.0 * 400.0).build().expect("valid benchmark config")
}

fn utility(seed: u64, choice: usize) -> f64 {
    100.0 + ((choice as u64 ^ seed) % 7) as f64
}

/// The scalar learners' checksum for the same trajectory (untimed).
fn scalar_checksum(m: usize, stages: usize, seed: u64) -> f64 {
    let cfg = kernel_config(m);
    let mut learners: Vec<RthsState> = (0..SLOTS).map(|_| RthsState::new(&cfg)).collect();
    let mut rngs: Vec<StdRng> =
        (0..SLOTS).map(|i| StdRng::seed_from_u64(seed + i as u64)).collect();
    let mut row = Vec::new();
    for _ in 0..stages {
        for (i, l) in learners.iter_mut().enumerate() {
            let choice = l.select_action(&mut rngs[i]);
            l.observe(&cfg, utility(seed, choice), &mut row);
        }
    }
    let regret: f64 = learners.iter().map(|l| l.max_regret(&cfg)).sum();
    regret + learners.iter().map(|l| l.probabilities()[0]).sum::<f64>()
}

/// Times `LearnerSlab` select, observe (batched decay plus predecayed
/// update, as the peer store runs it) and the `O(m²)` max-regret scan at
/// arity `m`. Returns `None` if the slab's checksum differs from the
/// scalar learners'.
pub fn kernels(m: usize, stages: usize, scans: usize, seed: u64) -> Option<KernelTimes> {
    let cfg = kernel_config(m);
    let mut slab = LearnerSlab::with_capacity(m, SLOTS);
    for _ in 0..SLOTS {
        slab.alloc(m);
    }
    let mut rngs: Vec<StdRng> =
        (0..SLOTS).map(|i| StdRng::seed_from_u64(seed + i as u64)).collect();
    let mut row = Vec::new();
    let keep = 1.0 - cfg.epsilon();
    let mut choices = vec![0usize; SLOTS];
    let (mut select_ns, mut observe_ns) = (0.0, 0.0);
    for _ in 0..stages {
        let mut cols = slab.split();
        let t0 = now();
        for (i, choice) in choices.iter_mut().enumerate() {
            *choice = cols.select_action(i, &mut rngs[i]);
        }
        let t1 = now();
        cols.decay(keep);
        for (i, &choice) in choices.iter().enumerate() {
            cols.observe_predecayed(i, &cfg, utility(seed, choice), &mut row);
        }
        let t2 = now();
        select_ns += t1.duration_since(t0).as_nanos() as f64;
        observe_ns += t2.duration_since(t1).as_nanos() as f64;
    }
    let mut diag = Vec::new();
    let mut cols = slab.split();
    let mut regret = 0.0;
    let t0 = now();
    for _ in 0..scans {
        regret = 0.0;
        for i in 0..SLOTS {
            regret += std::hint::black_box(cols.max_regret(i, &cfg, &mut diag));
        }
    }
    let max_regret_ns = now().duration_since(t0).as_nanos() as f64 / (scans * SLOTS) as f64;
    let checksum = regret + (0..SLOTS).map(|i| slab.probabilities(i)[0]).sum::<f64>();
    if checksum.to_bits() != scalar_checksum(m, stages, seed).to_bits() {
        return None;
    }
    let ops = (stages * SLOTS) as f64;
    Some(KernelTimes {
        observe_ns: observe_ns / ops,
        select_ns: select_ns / ops,
        max_regret_ns,
    })
}

/// Wire-codec figures per message.
#[derive(Debug, Clone, Copy)]
pub struct WireTimes {
    pub encode_ns_per_msg: f64,
    pub decode_ns_per_msg: f64,
    pub bytes_per_msg: f64,
}

/// One epoch's cross-process frames of `reactor_20k`'s inputs run over
/// two processes (`run_multiproc(…, 2)`): rank 1 hosts the upper half
/// of the peers; the coordinator and every helper sit in rank 0's first
/// shard. Rank 0 sends them `Tick` and `Rate` in
/// `Merge` steps; they answer `Request`, `Selected` and `Observed` in
/// `DrainDone` replies, batched by sending shard.
pub(crate) fn epoch_frames(seed: u64, epoch: u64) -> Vec<Frame> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x00c0_ffee);
    let first = 2 + REACTOR_HELPERS + REACTOR_PEERS / 2;
    let last = 2 + REACTOR_HELPERS + REACTOR_PEERS;
    let peer_of = |actor: usize| (actor - 2 - REACTOR_HELPERS) as u64;
    let helper = |actor: usize| 2 + (actor * 31) % REACTOR_HELPERS;
    let from_rank0 = |msg: &dyn Fn(usize) -> NetMsg| {
        Frame::Step(Step::Merge {
            batches: vec![RemoteBatch {
                sender_shard: 0,
                msgs: (first..last).map(|a| (ActorId(a), msg(a))).collect(),
            }],
        })
    };
    let from_rank1 = |msg: &mut dyn FnMut(usize) -> (ActorId, NetMsg)| {
        let mut out: Vec<RemoteBatch<NetMsg>> = Vec::new();
        for a in first..last {
            let shard = a / SHARD_SPAN;
            if out.last().is_none_or(|b| b.sender_shard != shard) {
                out.push(RemoteBatch { sender_shard: shard, msgs: Vec::new() });
            }
            out.last_mut().expect("pushed above").msgs.push(msg(a));
        }
        Frame::Reply(Reply::DrainDone { out })
    };
    let rates: Vec<f64> = (first..last).map(|_| rng.gen_range(0.0..800.0)).collect();
    vec![
        from_rank0(&|_| NetMsg::Tick { epoch }),
        from_rank1(&mut |a| {
            (ActorId(helper(a)), NetMsg::Request { peer: peer_of(a), epoch, lost: a % 17 == 0 })
        }),
        from_rank0(&|a| NetMsg::Rate { epoch, kbps: rates[a - first] }),
        from_rank1(&mut |a| {
            (ActorId(0), NetMsg::Selected { peer: peer_of(a), epoch, helper: helper(a) - 2 })
        }),
        from_rank1(&mut |a| {
            let rate = rates[a - first];
            (
                ActorId(0),
                NetMsg::Observed { peer: peer_of(a), epoch, rate, estimate: rate / 9.0 },
            )
        }),
    ]
}

/// Messages a frame carries.
fn messages(frame: &Frame) -> usize {
    match frame {
        Frame::Step(Step::Merge { batches }) => batches.iter().map(|b| b.msgs.len()).sum(),
        Frame::Reply(Reply::DrainDone { out }) => out.iter().map(|b| b.msgs.len()).sum(),
        _ => 0,
    }
}

/// Times `encode_frame` and `decode_frame` over `rounds` epochs of
/// [`epoch_frames`]. Returns `None` if a decoded frame does not
/// re-encode to its original bytes.
pub fn wire(seed: u64, rounds: u64) -> Option<WireTimes> {
    let (mut enc_ns, mut dec_ns, mut bytes, mut msgs) = (0.0, 0.0, 0usize, 0usize);
    for epoch in 0..rounds {
        for frame in epoch_frames(seed, epoch) {
            msgs += messages(&frame);
            let t0 = now();
            let body = std::hint::black_box(encode_frame(&frame));
            let t1 = now();
            let back = std::hint::black_box(decode_frame(&body)).ok()?;
            let t2 = now();
            enc_ns += t1.duration_since(t0).as_nanos() as f64;
            dec_ns += t2.duration_since(t1).as_nanos() as f64;
            bytes += body.len();
            if encode_frame(&back) != body {
                return None;
            }
        }
    }
    let msgs = msgs.max(1) as f64;
    Some(WireTimes {
        encode_ns_per_msg: enc_ns / msgs,
        decode_ns_per_msg: dec_ns / msgs,
        bytes_per_msg: bytes as f64 / msgs,
    })
}
