//! `perfbench`: the Polyraptor reproduction measured end to end and
//! layer by layer.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_write --seed 1 --seconds 35 --trace 0
//! ```
//!
//! One invocation runs one workload in this process, single-threaded,
//! as a batch of seeded runs repeated until `--seconds` have passed.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` alternates
//! untraced and traced runs, probes each layer, and reports the
//! per-layer metrics. The last line of standard output is one JSON
//! object; the lines before it are the same numbers for people. See
//! README.md for the workloads, the metrics and what they should move.

mod layers;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use netsim::Pcg32;
use polyraptor::metrics::percentile_sorted;

use layers::median;
use trace::Tracer;
use workloads::{RunOutcome, Workload};

const USAGE: &str = "usage: perfbench --workload <paper_write|churn_jellyfish|fetch_real_codec> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// The seed a workload runs with when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 35.0_f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The seed of the `i`-th run of an invocation seeded `seed`.
fn run_seed(seed: u64, i: usize) -> u64 {
    Pcg32::new(seed).fork(i as u64).next_u64()
}

/// First and third quartiles, as Python's `statistics.quantiles(xs,
/// n=4)` computes them (the exclusive method).
fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return (v[0], v[0]);
    }
    let q = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Quartile distance as a share of the median.
fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs)
}

/// What an invocation prints.
#[derive(Default)]
struct Report {
    attempted: usize,
    failed: usize,
    /// (name, value, unit, note for the human-readable line).
    metrics: Vec<(&'static str, f64, &'static str, String)>,
}

impl Report {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.metrics.push((name, value, unit, note));
    }

    fn print(&self) {
        for (name, value, unit, note) in &self.metrics {
            println!("{name:<28} {value:>14.6} {unit:<8} {note}");
        }
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "{:<28} {frac:>14.6} {:<8} {} of {} sessions and checks failed",
            "fail_frac", "ratio", self.failed, self.attempted
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit, _)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Simulated foreground goodput p50 and completion-time p99 of each run,
/// each taken as the median over a batch of runs (deterministic per
/// seed). A pooled p99 over the batch would rest on its dozen slowest
/// flows and swing with whether a seed's batch holds a congested run;
/// the median over runs does not.
fn sim_metrics(runs: &[RunOutcome]) -> (f64, f64) {
    let (mut goodput, mut fct) = (Vec::new(), Vec::new());
    for r in runs {
        let mut g: Vec<f64> = r.flows.iter().map(|f| f.0).collect();
        let mut t: Vec<u64> = r.flows.iter().map(|f| f.1).collect();
        g.sort_by(f64::total_cmp);
        t.sort_unstable();
        goodput.push(percentile_sorted(&g, 50.0));
        fct.push(percentile_sorted(&t, 99.0) as f64 / 1e6);
    }
    (median(&goodput), median(&fct))
}

/// Whether two runs of one seed simulated the same thing.
fn same_simulation(a: &RunOutcome, b: &RunOutcome) -> bool {
    a.fingerprint == b.fingerprint && a.stats == b.stats
}

/// `--trace 0`: the end-to-end metrics.
fn untraced(args: &Args) -> Report {
    let wl = args.workload;
    let mut tr = Tracer::off();
    let mut rep = Report::default();
    let mut runs: Vec<RunOutcome> = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while i < wl.batch() || start.elapsed().as_secs_f64() < args.seconds {
        rep.attempted += wl.sessions();
        match workloads::run_guarded(wl, run_seed(args.seed, i), 1, &mut tr) {
            Some(out) => {
                rep.failed += out.failed;
                runs.push(out);
            }
            None => rep.failed += wl.sessions(),
        }
        i += 1;
    }
    // Replay the first run: a run must be a function of its seed.
    rep.attempted += wl.sessions();
    match (
        workloads::run_guarded(wl, run_seed(args.seed, 0), 1, &mut tr),
        runs.first(),
    ) {
        (Some(again), Some(first)) if same_simulation(&again, first) => {
            rep.failed += again.failed;
            runs.push(again);
        }
        _ => rep.failed += wl.sessions(),
    }
    if runs.len() < 2 {
        return rep;
    }
    let run_s: Vec<f64> = runs.iter().map(|r| r.run_s).collect();
    let setup_s: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();
    let n = runs.len();
    rep.add(
        "run_s",
        median(&run_s),
        "s",
        format!(
            "median of {n} runs, quartile spread {:.1} %",
            100.0 * spread(&run_s)
        ),
    );
    rep.add(
        "setup_s",
        median(&setup_s),
        "s",
        format!(
            "median of {n} runs, quartile spread {:.1} %",
            100.0 * spread(&setup_s)
        ),
    );
    rep.add(
        "peak_rss_mb",
        layers::rss_mb(true),
        "MB",
        "VmHWM of this process".into(),
    );
    let batch = &runs[..wl.batch().min(runs.len())];
    let (goodput, fct) = sim_metrics(batch);
    let flows: usize = batch.iter().map(|r| r.flows.len()).sum();
    rep.add(
        "sim_goodput_p50_gbps",
        goodput,
        "Gbit/s",
        format!(
            "simulated, median over {} runs of {flows} foreground flows",
            batch.len()
        ),
    );
    rep.add(
        "sim_fct_p99_ms",
        fct,
        "ms",
        format!(
            "simulated, median over {} runs of {flows} foreground flows",
            batch.len()
        ),
    );
    rep
}

/// Traced runs whose counters give the per-layer counts: a fixed
/// number, so those counts depend on the seed alone.
const TRACED_RUNS: usize = 3;

/// `--trace 1`: the per-layer metrics, from spans around each layer's
/// calls in alternating untraced and traced runs, plus layer probes.
fn traced(args: &Args) -> Report {
    let wl = args.workload;
    let mut tr = Tracer::on();
    let mut off = Tracer::off();
    let mut rep = Report::default();

    // Topology probes first, on the process's first build (whose RSS
    // growth is the build's memory), so the 5 000-host tables are gone
    // before the timed runs start. The repair replay fails links last.
    let probe_seed = run_seed(args.seed, 0);
    let (mut topo, build_rss) = layers::build_rss_mb(wl, &mut tr);
    let routes = layers::route_compute_s(&mut topo, &mut tr);
    let fwd_ns = layers::forwarding_ns(&topo, probe_seed, &mut tr);
    let repair_ms = layers::repair_ms(wl, &mut topo, probe_seed, &mut tr);
    drop(topo);

    // Half the budget alternates untraced and traced runs of one seed;
    // the rest is left to the probes.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut i = 0;
    while i < TRACED_RUNS || start.elapsed().as_secs_f64() < args.seconds / 2.0 {
        let seed = run_seed(args.seed, i);
        rep.attempted += 2 * wl.sessions();
        tr.set_run(i as u32 + 1);
        // Alternate which goes first, so drift in machine speed does not
        // read as tracing overhead.
        let (a, b) = if i % 2 == 0 {
            let a = workloads::run_guarded(wl, seed, 1, &mut off);
            (a, workloads::run_guarded(wl, seed, 1, &mut tr))
        } else {
            let b = workloads::run_guarded(wl, seed, 1, &mut tr);
            (workloads::run_guarded(wl, seed, 1, &mut off), b)
        };
        match (a, b) {
            (Some(a), Some(b)) if same_simulation(&a, &b) => {
                rep.failed += a.failed + b.failed;
                plain.push(a);
                traced.push(b);
            }
            _ => rep.failed += 2 * wl.sessions(),
        }
        i += 1;
    }
    if traced.len() < TRACED_RUNS {
        return rep;
    }
    let runs = i as u32;
    // Median self time per run of the spans called `name`.
    let self_s = |tr: &Tracer, name: &str| -> f64 {
        let own: Vec<f64> = tr
            .spans()
            .iter()
            .zip(tr.self_ns())
            .filter(|(s, _)| s.name == name && (1..=runs).contains(&s.run))
            .map(|(_, ns)| ns as f64 / 1e9)
            .collect();
        median(&own)
    };

    // The remaining probes, each under its own run id.
    tr.set_run(runs + 1);
    let shard = layers::shard_replay(wl, probe_seed, &plain[0], &mut tr);
    rep.attempted += shard.attempted;
    rep.failed += shard.failed;
    tr.set_run(runs + 2);
    let codec = layers::codec(wl.object_bytes(), wl.pr().symbol_size, args.seed, &mut tr);
    rep.attempted += codec.attempted;
    rep.failed += codec.failed;

    let counted = &traced[..TRACED_RUNS];
    let mean = |f: &dyn Fn(&RunOutcome) -> u64| -> f64 {
        counted.iter().map(|r| f(r) as f64).sum::<f64>() / TRACED_RUNS as f64
    };
    let delivered = mean(&|r| r.stats.delivered);
    let trimmed = mean(&|r| r.stats.trimmed);
    let ns_per_event: Vec<f64> = traced
        .iter()
        .map(|r| 1e9 * r.loop_s / r.stats.events as f64)
        .collect();
    let run_s = |runs: &[RunOutcome]| median(&runs.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let m = [
        ("topology.build_s", self_s(&tr, "topology.build"), "s"),
        ("topology.routes_s", median(&routes), "s"),
        ("topology.rss_mb", build_rss, "MB"),
        ("topology.repair_ms", repair_ms, "ms"),
        (
            "topology.columns_rebuilt",
            mean(&|r| r.stats.route_dests_rebuilt),
            "count",
        ),
        ("topology.fwd_ns", fwd_ns, "ns"),
        ("sim.new_s", self_s(&tr, "sim.new"), "s"),
        ("sim.loop_s", self_s(&tr, "sim.loop"), "s"),
        ("sim.events", mean(&|r| r.stats.events), "count"),
        ("sim.ns_per_event", median(&ns_per_event), "ns"),
        ("sim.delivered", delivered, "count"),
        ("sim.trimmed", trimmed, "count"),
        ("sim.dropped", mean(&|r| r.stats.dropped), "count"),
        (
            "sim.trim_frac",
            trimmed / (delivered + trimmed).max(1.0),
            "ratio",
        ),
        (
            "sim.lost_to_fault",
            mean(&|r| r.stats.lost_to_fault),
            "count",
        ),
        ("sim.reroutes", mean(&|r| r.stats.reroutes), "count"),
        ("shard.speedup_2", shard.speedup, "x"),
        ("shard.epochs", shard.stats.shard_epochs as f64, "count"),
        (
            "shard.horizon_stalls",
            shard.stats.horizon_stalls as f64,
            "count",
        ),
        (
            "shard.cross_shard_packets",
            shard.stats.cross_shard_packets as f64,
            "count",
        ),
        ("core.install_s", self_s(&tr, "core.install"), "s"),
        (
            "core.symbols_per_source",
            mean(&|r| r.core.symbols) / mean(&|r| r.core.source_symbols).max(1.0),
            "ratio",
        ),
        ("core.pulls_sent", mean(&|r| r.core.pulls_sent), "count"),
        ("core.trimmed_seen", mean(&|r| r.core.trimmed_seen), "count"),
        ("core.stranded", mean(&|r| r.core.stranded), "count"),
        ("core.retargets", mean(&|r| r.core.retargets), "count"),
        (
            "core.retarget_symbols",
            mean(&|r| r.core.retarget_symbols),
            "count",
        ),
        ("rq.encode_mbps", codec.encode_mbps, "MB/s"),
        ("rq.symbol_mbps", codec.symbol_mbps, "MB/s"),
        ("rq.decode_fast_mbps", codec.decode_fast_mbps, "MB/s"),
        ("rq.decode_solver_mbps", codec.decode_solver_mbps, "MB/s"),
        ("workload.generate_s", self_s(&tr, "workload.generate"), "s"),
        (
            "trace.overhead_frac",
            run_s(&traced) / run_s(&plain) - 1.0,
            "ratio",
        ),
    ];
    for (name, value, unit) in m {
        rep.add(name, value, unit, String::new());
    }
    println!(
        "{} untraced and {} traced runs, identical simulations; 2-shard replay {}",
        plain.len(),
        traced.len(),
        if shard.identical {
            "identical"
        } else {
            "DIFFERS"
        },
    );
    write_trace(args, &tr);
    rep
}

/// Write the spans of a traced invocation as a Chrome trace under the
/// benchmark's `out/` directory.
fn write_trace(args: &Args, tr: &Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace_{}_{}.json", args.workload.name(), args.seed));
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, tr.chrome_json())) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench {} seed {} for {} s, trace {}: {} x {} KB on {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.workload.sessions(),
        args.workload.object_bytes() >> 10,
        args.workload.fabric().describe(),
    );
    let report = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    report.print();
    ExitCode::SUCCESS
}
