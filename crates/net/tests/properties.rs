//! Property-based tests for the decentralized runtime (reactor backend).

use proptest::prelude::*;
use rths_net::{NetConfig, ReactorRuntime};
use rths_sim::{BandwidthSpec, ImpairmentPlan, SimConfig};

fn config(n: usize, h: usize, seed: u64, demand: Option<f64>) -> SimConfig {
    let mut b = SimConfig::builder(n, vec![BandwidthSpec::Paper { stay: 0.95 }; h]).seed(seed);
    if let Some(d) = demand {
        b = b.demand(d);
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn runtime_is_deterministic(
        n in 2usize..12,
        h in 1usize..5,
        seed in any::<u64>(),
    ) {
        let run = || ReactorRuntime::new(NetConfig::from_sim(config(n, h, seed, None))).run(30);
        let a = run();
        let b = run();
        prop_assert_eq!(a.metrics.welfare.values(), b.metrics.welfare.values());
        prop_assert_eq!(a.peer_mean_rates, b.peer_mean_rates);
    }

    #[test]
    fn lossy_runs_are_deterministic_too(
        seed in any::<u64>(),
        loss in 0.0..0.9f64,
    ) {
        let run = || {
            let plan = ImpairmentPlan::builder(seed ^ 0xABCD)
                .uniform_loss(loss)
                .build()
                .expect("loss is a probability");
            let cfg = NetConfig::from_sim(config(6, 2, seed, Some(300.0)))
                .with_impairments(plan);
            ReactorRuntime::new(cfg).run(40)
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.metrics.welfare.values(), b.metrics.welfare.values());
        prop_assert_eq!(a.metrics.server_load.values(), b.metrics.server_load.values());
    }

    #[test]
    fn loss_is_monotone_in_welfare(seed in 0u64..50) {
        // More loss can never deliver more total rate (deterministic
        // comparison is per-seed noisy, so compare time-averaged welfare
        // with a tolerance).
        let run = |loss: f64| {
            let plan = ImpairmentPlan::builder(7)
                .uniform_loss(loss)
                .build()
                .expect("loss is a probability");
            let cfg = NetConfig::from_sim(config(8, 2, seed, None)).with_impairments(plan);
            let out = ReactorRuntime::new(cfg).run(150);
            out.metrics.welfare.tail_mean(100)
        };
        let clean = run(0.0);
        let heavy = run(0.6);
        prop_assert!(heavy <= clean * 1.05 + 1e-9,
            "heavy loss delivered more: {heavy} vs {clean}");
    }

    #[test]
    fn conservation_with_demand(
        n in 2usize..10,
        seed in any::<u64>(),
    ) {
        let out =
            ReactorRuntime::new(NetConfig::from_sim(config(n, 3, seed, Some(350.0)))).run(40);
        for e in 0..40 {
            let w = out.metrics.welfare.values()[e];
            let s = out.metrics.server_load.values()[e];
            prop_assert!((w + s - 350.0 * n as f64).abs() < 1e-6,
                "delivered {w} + server {s} != demand");
        }
    }
}
