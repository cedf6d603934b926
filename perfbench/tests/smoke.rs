//! A few-epoch run of every workload through the same entry points the
//! benchmark uses, plus one short end-to-end run of the binary.

use std::process::Command;

use perfbench::trace::layer_rows;
use perfbench::workloads::{self, Workload};
use rths_obs as obs;

const BIN: &str = env!("CARGO_BIN_EXE_perfbench");

/// Runs with the benchmark binary as the multi-process worker (it
/// becomes one when the backend's socket variable is set).
fn with_worker<R>(f: impl FnOnce() -> R) -> R {
    rths_par::env::with_var(rths_net::multiproc::WORKER_ENV, Some(BIN), f)
}

fn short(w: Workload, threads: usize) -> workloads::Sample {
    with_worker(|| workloads::run(w, 5, 3, threads))
}

#[test]
fn every_workload_runs_and_repeats_bit_for_bit() {
    for w in Workload::ALL {
        let a = short(w, 1);
        let b = short(w, 1);
        assert_eq!(a.digest, b.digest, "{}", w.name());
        assert_eq!(a.quality, b.quality, "{}", w.name());
        assert_eq!(a.epoch_ms.len(), 3);
        assert!(a.setup_s > 0.0 && a.run_s > 0.0, "{}", w.name());
        assert!(a.quality.welfare_per_peer_kbps > 0.0, "{}", w.name());
        assert!(a.quality.helper_load_jain > 0.0, "{}", w.name());
        assert!(!a.rss_kb.is_empty() && a.rss_kb.iter().all(|&k| k > 0), "{}", w.name());
    }
}

#[test]
fn cross_checks_agree() {
    assert_eq!(
        short(Workload::Reactor20k, 1).digest,
        with_worker(|| workloads::run_multiproc2(5, 3)).digest
    );
    assert_eq!(
        short(Workload::ChurnFlash1k, 1).digest,
        short(Workload::ChurnFlash1k, 2).digest
    );
}

#[test]
fn traced_run_accounts_for_the_epoch() {
    let _on = obs::scoped_enable(true);
    obs::begin_run("smoke");
    let s = workloads::run(Workload::ChurnFlash1k, 5, 40, 1);
    let rows = layer_rows(&obs::take_report(), s.epochs, s.epoch_wall_s * 1e3);
    let get = |n: &str| rows.iter().find(|r| r.0 == n).map(|r| r.1).expect(n);
    let coverage = get("obs.leaf_coverage");
    assert!(coverage > 0.5 && coverage <= 1.0, "coverage {coverage}");
    assert!(get("core.slab_observe_ms") > 0.0);
    assert!(get("sim.churn_ms") > 0.0);
    assert_eq!(get("reactor.mailbox_drain_ms"), 0.0);
}

fn last_line(out: &[u8]) -> String {
    String::from_utf8_lossy(out).lines().last().unwrap_or_default().to_string()
}

#[test]
fn binary_prints_a_result_line() {
    for trace in ["0", "1"] {
        let out = Command::new(BIN)
            .args(["--workload", "churn_flash_1k", "--seed", "3", "--seconds", "1"])
            .args(["--trace", trace])
            .output()
            .expect("run the benchmark");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let last = last_line(&out.stdout);
        assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "{last}");
        let key = if trace == "0" { "\"epoch_ms_p90\"" } else { "\"obs.leaf_coverage\"" };
        assert!(last.contains(key), "{last}");
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(BIN).args(["--workload", "no_such"]).output().expect("run");
    assert_eq!(out.status.code(), Some(2));
    assert!(!last_line(&out.stdout).starts_with('{'));
}
