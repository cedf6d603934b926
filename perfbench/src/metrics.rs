//! The metric catalogue: every end-to-end and per-layer metric the
//! benchmark reports, with its unit. `BENCHMARK.json` lists the same
//! names (a test keeps the two in step).

/// End-to-end metrics (reported by untraced runs), with units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("epochs_per_s", "1/s"),
    ("epoch_ms_p50", "ms"),
    ("epoch_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("welfare_per_peer_kbps", "kbps"),
    ("helper_load_jain", "ratio"),
];

/// Per-layer metrics (reported by traced runs), with units. Times and
/// counts are per epoch unless the unit says otherwise.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("sim.helper_dynamics_ms", "ms/epoch"),
    ("sim.churn_ms", "ms/epoch"),
    ("sim.choose_ms", "ms/epoch"),
    ("sim.rate_alloc_ms", "ms/epoch"),
    ("sim.impairment_ms", "ms/epoch"),
    ("sim.observe_self_ms", "ms/epoch"),
    ("sim.regret_fold_ms", "ms/epoch"),
    ("sim.settle_ms", "ms/epoch"),
    ("sim.metrics_ms", "ms/epoch"),
    ("sim.stretch_folds", "1/epoch"),
    ("sim.finish_s", "s"),
    ("core.slab_observe_ms", "ms/epoch"),
    ("core.slab_decay_ms", "ms/epoch"),
    ("core.slab_columns_touched", "1/epoch"),
    ("math.observe_ns_m16", "ns/op"),
    ("math.observe_ns_m64", "ns/op"),
    ("math.select_ns_m64", "ns/op"),
    ("math.max_regret_ns_m64", "ns/op"),
    ("par.dispatch_ms", "ms/epoch"),
    ("par.wait_ms", "ms/epoch"),
    ("par.regions", "1/epoch"),
    ("reactor.mailbox_sort_ms", "ms/epoch"),
    ("reactor.mailbox_deliver_ms", "ms/epoch"),
    ("reactor.mailbox_drain_ms", "ms/epoch"),
    ("reactor.timer_flush_ms", "ms/epoch"),
    ("reactor.rounds", "1/epoch"),
    ("reactor.messages", "1/epoch"),
    ("reactor.timers_fired", "1/epoch"),
    ("reactor.ring_grow_events", "count"),
    ("reactor.ring_capacity_hwm", "slots"),
    ("net.control_msgs", "1/epoch"),
    ("net.data_msgs", "1/epoch"),
    ("net.wire_encode_ns_per_msg", "ns/msg"),
    ("net.wire_decode_ns_per_msg", "ns/msg"),
    ("net.wire_bytes_per_msg", "B/msg"),
    ("net.multiproc_rank0_unattributed_ms", "ms/epoch"),
    ("obs.leaf_coverage", "ratio"),
    ("obs.unattributed_ms", "ms/epoch"),
    ("obs.trace_overhead_pct", "%"),
];

/// Counts the engines return that are totals over a run rather than
/// rates: reported as they are, not per epoch.
pub const RUN_TOTALS: [&str; 2] = ["reactor.ring_grow_events", "reactor.ring_capacity_hwm"];

/// Unit of a catalogued metric.
pub fn unit(name: &str) -> &'static str {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|(n, _)| *n == name).map_or("", |(_, u)| u)
}
