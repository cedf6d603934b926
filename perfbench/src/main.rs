//! `perfbench`: runs the repository benchmark.
//!
//! ```text
//! perfbench --workload <name|all> [--seed 7] [--seconds 50] [--trace 0|1]
//! ```
//!
//! Every sample runs in a fresh process (this binary, re-executed as
//! `perfbench child <kind> <workload> <seed>`); the parent only launches
//! samples, checks their outputs and aggregates. With `--trace 0` it
//! prints the end-to-end metrics, with `--trace 1` the per-layer table.
//! The last line of standard output is the JSON result. See `README.md`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use perfbench::clock::now;
use perfbench::report::{line, result_json, Fields, Metric};
use perfbench::workloads::{self, Workload};
use perfbench::{digest, metrics, micro, stats, trace};
use rths_obs as obs;

/// Directory (relative to the working directory, so inside the checkout)
/// for sample outputs and the multi-process backend's sockets.
const SCRATCH: &str = ".perfbench_tmp";
/// Reference digests: `workload seed epochs digest` per line.
const REFERENCES: &str = include_str!("../reference_digests.txt");
/// Sampling stops after this long whatever the budget, leaving time for
/// the cross-checks within the three-minute limit of one run.
const SAMPLING_LIMIT: Duration = Duration::from_secs(120);
/// Hard limit of one sample process.
const CHILD_LIMIT: Duration = Duration::from_secs(100);

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args { workloads: Vec::new(), seed: 7, seconds: 50, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => out.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                out.workloads = vec![Workload::parse(value)
                    .ok_or_else(|| format!("unknown workload {value}"))?]
            }
            "--seed" => out.seed = value.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|_| "--seconds takes an integer")?
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if out.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(out)
}

fn main() -> ExitCode {
    // The multi-process backend re-executes this binary as its worker.
    if std::env::var_os(rths_net::multiproc::SOCKET_ENV).is_some() {
        rths_net::multiproc::worker_main();
        return ExitCode::SUCCESS;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "child") {
        return child_main(&args[1..]);
    }
    match parse_args(&args) {
        Ok(args) => run_benchmark(&args),
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|all> [--seed N] [--seconds S] [--trace 0|1]",
                Workload::ALL.map(Workload::name).join("|")
            );
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------
// Sample processes
// ---------------------------------------------------------------------

fn sample_fields(s: &workloads::Sample) -> String {
    let mut out = String::new();
    line(&mut out, "setup_s", [s.setup_s]);
    line(&mut out, "run_s", [s.run_s]);
    line(&mut out, "finish_s", [s.finish_s]);
    line(&mut out, "epoch_wall_s", [s.epoch_wall_s]);
    line(&mut out, "epochs", [s.epochs]);
    line(&mut out, "epoch_ms", &s.epoch_ms);
    line(&mut out, "rss_kb", &s.rss_kb);
    let q = &s.quality;
    line(
        &mut out,
        "quality",
        [
            q.welfare_per_peer_kbps,
            q.worst_regret_tail,
            q.helper_load_jain,
            q.server_load_kbps,
            q.continuity,
        ],
    );
    line(&mut out, "digest", [digest::hex(s.digest)]);
    for (name, v) in &s.counts {
        line(&mut out, &format!("count.{name}"), [v]);
    }
    out
}

fn child_main(args: &[String]) -> ExitCode {
    let (Some(kind), Some(w), Some(seed)) = (
        args.first(),
        args.get(1).and_then(|w| Workload::parse(w)),
        args.get(2).and_then(|s| s.parse::<u64>().ok()),
    ) else {
        eprintln!("perfbench child: expected <kind> <workload> <seed>");
        return ExitCode::from(2);
    };
    let epochs = w.epochs();
    let mut out = String::new();
    match kind.as_str() {
        "timed" => {
            let s = workloads::run(w, seed, epochs, workloads::THREADS);
            out = sample_fields(&s);
        }
        "traced" => {
            let _on = obs::scoped_enable(true);
            obs::begin_run(w.name());
            let s = workloads::run(w, seed, epochs, workloads::THREADS);
            let report = obs::take_report();
            out = sample_fields(&s);
            for (name, v) in trace::layer_rows(&report, s.epochs, s.epoch_wall_s * 1e3) {
                line(&mut out, &format!("layer.{name}"), [v]);
            }
            if w == Workload::Reactor20k {
                // The same inputs over two processes: what rank 0's
                // phases leave of the epoch is the cross-process layer.
                obs::begin_run("multiproc2");
                let m = workloads::run_multiproc2(seed, epochs);
                let rows =
                    trace::layer_rows(&obs::take_report(), m.epochs, m.epoch_wall_s * 1e3);
                if let Some((_, v)) = rows.iter().find(|r| r.0 == "obs.unattributed_ms") {
                    line(&mut out, "layer.net.multiproc_rank0_unattributed_ms", [v]);
                }
            }
        }
        "setup" => line(&mut out, "setup_s", [workloads::setup_only(w, seed)]),
        "reference" => {
            // The same outputs through another path: the reactor's inputs
            // over two processes, or the sim engine sharded over 2
            // `rths_par` threads.
            let s = match w {
                Workload::Reactor20k => workloads::run_multiproc2(seed, epochs),
                Workload::ChurnFlash1k => workloads::run(w, seed, epochs, 2),
            };
            line(&mut out, "digest", [digest::hex(s.digest)]);
        }
        "micro" => {
            let mut ok = true;
            for m in [16, 64] {
                match micro::kernels(m, 300, 20, seed) {
                    Some(k) => {
                        line(&mut out, &format!("layer.math.observe_ns_m{m}"), [k.observe_ns]);
                        line(&mut out, &format!("layer.math.select_ns_m{m}"), [k.select_ns]);
                        line(
                            &mut out,
                            &format!("layer.math.max_regret_ns_m{m}"),
                            [k.max_regret_ns],
                        );
                    }
                    None => ok = false,
                }
            }
            match micro::wire(seed, 4) {
                Some(t) => {
                    line(&mut out, "layer.net.wire_encode_ns_per_msg", [t.encode_ns_per_msg]);
                    line(&mut out, "layer.net.wire_decode_ns_per_msg", [t.decode_ns_per_msg]);
                    line(&mut out, "layer.net.wire_bytes_per_msg", [t.bytes_per_msg]);
                }
                None => ok = false,
            }
            line(&mut out, "micro_ok", [u8::from(ok)]);
        }
        other => {
            eprintln!("perfbench child: unknown kind {other}");
            return ExitCode::from(2);
        }
    }
    print!("{out}");
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------
// The parent process
// ---------------------------------------------------------------------

/// Everything collected for one workload.
#[derive(Default)]
struct Acc {
    timed: Vec<Fields>,
    traced: Vec<Fields>,
    setups: Vec<f64>,
    reference: Option<u64>,
    micro: Option<Fields>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

struct Launcher {
    exe: PathBuf,
    scratch: PathBuf,
    seed: u64,
    count: u64,
}

impl Launcher {
    /// Runs one sample process to completion (or kills it at the limit)
    /// and returns its fields. Every launch counts as attempted; a
    /// failure counts as failed.
    fn run(&mut self, acc: &mut Acc, kind: &str, w: Workload) -> Option<Fields> {
        acc.attempted += 1;
        self.count += 1;
        let out_path = self.scratch.join(format!("sample-{}.out", self.count));
        let result = self.launch(kind, w, &out_path);
        let _ = std::fs::remove_file(&out_path);
        match result {
            Ok(fields) => Some(fields),
            Err(e) => {
                acc.failed += 1;
                acc.problems.push(format!("{kind} sample of {}: {e}", w.name()));
                None
            }
        }
    }

    fn launch(&self, kind: &str, w: Workload, out_path: &Path) -> Result<Fields, String> {
        let file = std::fs::File::create(out_path).map_err(|e| e.to_string())?;
        let mut child = Command::new(&self.exe)
            .args(["child", kind, w.name(), &self.seed.to_string()])
            .env("TMPDIR", &self.scratch)
            // Worker ranks read the thread count from the environment.
            .env("RTHS_THREADS", workloads::THREADS.to_string())
            .env(rths_net::multiproc::WORKER_ENV, &self.exe)
            .stdin(Stdio::null())
            .stdout(file)
            .spawn()
            .map_err(|e| format!("spawn: {e}"))?;
        let start = now();
        let status = loop {
            match child.try_wait().map_err(|e| e.to_string())? {
                Some(status) => break status,
                None if start.elapsed() > CHILD_LIMIT => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("timed out after {CHILD_LIMIT:?}"));
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        if !status.success() {
            return Err(format!("exited with {status}"));
        }
        let text = std::fs::read_to_string(out_path).map_err(|e| e.to_string())?;
        Ok(Fields::parse(&text))
    }
}

/// Stored reference digest for `(workload, seed, epochs)`, if any.
fn stored_reference(w: Workload, seed: u64, epochs: u64) -> Option<u64> {
    REFERENCES.lines().find_map(|l| {
        let f: Vec<&str> = l.split_whitespace().collect();
        match f.as_slice() {
            [name, s, e, d]
                if *name == w.name() && s.parse() == Ok(seed) && e.parse() == Ok(epochs) =>
            {
                digest::parse_hex(d)
            }
            _ => None,
        }
    })
}

/// Checks every sample's outputs: all samples agree bit for bit (digest
/// and quality figures), the cross-check path agrees, and the stored
/// reference agrees where one exists for this seed.
fn check(w: Workload, seed: u64, acc: &mut Acc) {
    let expected = stored_reference(w, seed, w.epochs())
        .or_else(|| acc.timed.first().and_then(|f| f.hex("digest")));
    let quality = acc.timed.first().and_then(|f| f.f64s("quality"));
    let mut bad = 0;
    for f in acc.timed.iter().chain(&acc.traced) {
        let same_quality = f.f64s("quality").zip(quality.as_ref()).is_some_and(|(a, b)| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        });
        if f.hex("digest") != expected || !same_quality {
            bad += 1;
        }
    }
    if bad > 0 {
        acc.failed += bad;
        acc.problems.push(format!(
            "{bad} sample(s) differ from the expected digest {}",
            expected.map_or("?".into(), digest::hex)
        ));
    }
    if let Some(r) = acc.reference {
        if Some(r) != expected {
            acc.failed += 1;
            acc.problems.push(format!("cross-check digest {} differs", digest::hex(r)));
        }
    }
    if acc.micro.as_ref().is_some_and(|m| m.f64("micro_ok") != Some(1.0)) {
        acc.failed += 1;
        acc.problems.push("microbenchmark checksums differ".into());
    }
}

/// Median, `NaN` when there is nothing to take it of.
fn median(xs: &[f64]) -> f64 {
    rths_math::stats::median(xs).unwrap_or(f64::NAN)
}

fn median_of(samples: &[Fields], f: impl Fn(&Fields) -> Option<f64>) -> f64 {
    median(&samples.iter().filter_map(f).collect::<Vec<_>>())
}

fn epochs_per_s(f: &Fields) -> Option<f64> {
    Some(f.f64("epochs")? / f.f64("run_s")?)
}

fn end_to_end(acc: &Acc) -> Vec<(&'static str, f64)> {
    let epochs: Vec<Vec<f64>> = acc.timed.iter().filter_map(|f| f.f64s("epoch_ms")).collect();
    let floor = stats::epoch_floor(&epochs).unwrap_or_default();
    let finish_s = acc.timed.iter().filter_map(|f| f.f64("finish_s")).fold(f64::NAN, f64::min);
    let run_s = floor.iter().sum::<f64>() / 1e3 + finish_s;
    let mut setups = acc.setups.clone();
    setups.extend(acc.timed.iter().filter_map(|f| f.f64("setup_s")));
    let q = acc.timed.first().and_then(|f| f.f64s("quality")).unwrap_or_default();
    // A floor too short for ten epochs beyond the percentile (34 epochs on
    // `reactor_20k`) gives way to all timed epochs pooled: at least three
    // samples, so at least 102 epochs.
    let pooled = epochs.concat();
    let pct = |p| {
        stats::percentile(&floor, p)
            .or_else(|| stats::percentile(&pooled, p))
            .unwrap_or(f64::NAN)
    };
    vec![
        ("setup_s", median(&setups)),
        ("epochs_per_s", floor.len() as f64 / run_s),
        ("epoch_ms_p50", pct(0.5)),
        ("epoch_ms_p90", pct(0.9)),
        ("peak_rss_mb", median_of(&acc.timed, |f| Some(f.f64("rss_kb")? / 1024.0))),
        ("welfare_per_peer_kbps", q.first().copied().unwrap_or(f64::NAN)),
        ("helper_load_jain", q.get(2).copied().unwrap_or(f64::NAN)),
    ]
}

fn per_layer(acc: &Acc, micro: Option<&Fields>) -> Vec<(&'static str, f64)> {
    let epochs = acc.traced.first().and_then(|f| f.f64("epochs")).unwrap_or(1.0);
    let untraced = median_of(&acc.timed, epochs_per_s);
    let traced = median_of(&acc.traced, epochs_per_s);
    let layer = |name: &str| {
        let key = format!("layer.{name}");
        median_of(&acc.traced, |f| Some(f.f64(&key).unwrap_or(0.0)))
    };
    metrics::PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let count = acc.traced.first().and_then(|f| f.f64(&format!("count.{name}")));
            let value = match name {
                "sim.finish_s" => median_of(&acc.timed, |f| f.f64("finish_s")),
                "obs.trace_overhead_pct" => (untraced - traced) / untraced * 100.0,
                _ if name.starts_with("math.") || name.starts_with("net.wire_") => {
                    micro.and_then(|m| m.f64(&format!("layer.{name}"))).unwrap_or(f64::NAN)
                }
                _ if metrics::RUN_TOTALS.contains(&name) => count.unwrap_or(0.0),
                _ if count.is_some() => count.unwrap_or(0.0) / epochs,
                _ => layer(name),
            };
            (name, value)
        })
        .collect()
}

fn run_benchmark(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let scratch = PathBuf::from(SCRATCH);
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {SCRATCH}: {e}");
        return ExitCode::FAILURE;
    }
    let mut launcher = Launcher { exe, scratch: scratch.clone(), seed: args.seed, count: 0 };
    let ws = &args.workloads;
    let mut accs: Vec<Acc> = ws.iter().map(|_| Acc::default()).collect();
    let start = now();
    let budget = Duration::from_secs(args.seconds * ws.len() as u64);
    let min_rounds = if args.trace { 2 } else { 3 };
    // Rounds of fresh-process samples; the workload order rotates from
    // round to round so no workload always runs first or last.
    for round in 0.. {
        for k in 0..ws.len() {
            let i = (k + round) % ws.len();
            let w = ws[i];
            let acc = &mut accs[i];
            if let Some(f) = launcher.run(acc, "timed", w) {
                acc.timed.push(f);
            }
            if args.trace {
                if let Some(f) = launcher.run(acc, "traced", w) {
                    acc.traced.push(f);
                }
            } else if let Some(s) = launcher.run(acc, "setup", w).and_then(|f| f.f64("setup_s"))
            {
                acc.setups.push(s);
            }
        }
        let elapsed = start.elapsed();
        if (round + 1 >= min_rounds && elapsed >= budget) || elapsed >= SAMPLING_LIMIT {
            break;
        }
    }
    if !args.trace {
        for (acc, &w) in accs.iter_mut().zip(ws) {
            acc.reference = launcher.run(acc, "reference", w).and_then(|f| f.hex("digest"));
        }
    }
    if args.trace {
        accs[0].micro = launcher.run(&mut accs[0], "micro", ws[0]);
    }
    let micro = accs[0].micro.clone();
    let _ = std::fs::remove_dir_all(&scratch);

    let mut all: Vec<Metric> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for (i, &w) in ws.iter().enumerate() {
        let acc = &mut accs[i];
        check(w, args.seed, acc);
        attempted += acc.attempted;
        failed += acc.failed;
        let rows = if args.trace { per_layer(acc, micro.as_ref()) } else { end_to_end(acc) };
        print_table(w, args, acc, &rows);
        for (name, value) in rows {
            let unit = metrics::unit(name);
            let name =
                if ws.len() == 1 { name.to_string() } else { format!("{}.{name}", w.name()) };
            all.push(Metric { name, unit, value });
        }
    }
    if all.iter().any(|m| !m.value.is_finite()) || accs.iter().any(|a| a.timed.is_empty()) {
        eprintln!(
            "perfbench: no usable samples ({failed} of {attempted} sample processes failed)"
        );
        return ExitCode::FAILURE;
    }
    println!("{}", result_json(failed == 0, attempted, failed, &all));
    ExitCode::SUCCESS
}

fn print_table(w: Workload, args: &Args, acc: &Acc, rows: &[(&'static str, f64)]) {
    let samples = if args.trace { acc.traced.len() } else { acc.timed.len() };
    println!(
        "== {} (seed {}, {} epochs per sample, {} thread(s), {} {} samples)",
        w.name(),
        args.seed,
        w.epochs(),
        workloads::THREADS,
        samples,
        if args.trace { "traced" } else { "timed" },
    );
    for (name, value) in rows {
        println!("  {name:<36} {value:>16.6} {}", metrics::unit(name));
    }
    if !args.trace {
        let each: Vec<String> =
            acc.timed.iter().filter_map(epochs_per_s).map(|v| format!("{v:.3}")).collect();
        println!("  epochs_per_s by sample: {}", each.join(" "));
        if let Some(q) = acc.timed.first().and_then(|f| f.f64s("quality")) {
            println!(
                "  worst_regret_tail {:.6} kbps, server_load_kbps {:.3}, continuity {:.6} \
                 (digest-checked, not gated)",
                q[1], q[3], q[4]
            );
        }
        if let Some(d) = acc.timed.first().and_then(|f| f.hex("digest")) {
            let stored = stored_reference(w, args.seed, w.epochs())
                .map_or("no stored reference for this seed".to_string(), |r| {
                    format!("stored reference {}", digest::hex(r))
                });
            println!("  digest {} ({stored})", digest::hex(d));
        }
    }
    for p in &acc.problems {
        println!("  FAILED: {p}");
    }
}
