//! Layer probes for the traced run: calls into one layer's public
//! functions, each inside a span, whose numbers a whole run does not
//! show on its own.

use std::hint::black_box;
use std::time::Instant;

use netsim::{FaultAction, FaultMask, NodeId, NodeKind, Pcg32, Topology};
use rq::{Decoder, Encoder};

use crate::trace::Tracer;
use crate::workloads::{self, RunOutcome, Workload};

/// Call `f` at least `min_reps` times and until `min_secs` have passed
/// (at most `max_reps` times); the wall seconds of each call.
fn repeat(min_reps: usize, max_reps: usize, min_secs: f64, mut f: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < max_reps
        && (times.len() < min_reps || start.elapsed().as_secs_f64() < min_secs)
    {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64());
    }
    times
}

/// Resident set size of this process in MB (`VmRSS`), or the peak
/// (`VmHWM`) when `peak` is set.
pub fn rss_mb(peak: bool) -> f64 {
    let key = if peak { "VmHWM:" } else { "VmRSS:" };
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status has a memory line");
    kb / 1024.0
}

/// One fabric build and the RSS growth over it, in MB. Meaningful only
/// as the process's first build: later builds reuse memory the
/// allocator kept.
pub fn build_rss_mb(wl: Workload, tr: &mut Tracer) -> (Topology, f64) {
    let before = rss_mb(false);
    let topo = tr.span("topology.build", || wl.fabric().build());
    (topo, rss_mb(false) - before)
}

/// Seconds per full route computation on the healthy fabric, one per
/// call (the build already computed them once; a recompute reuses its
/// arenas, so this excludes first-touch allocation).
pub fn route_compute_s(topo: &mut Topology, tr: &mut Tracer) -> Vec<f64> {
    let healthy = FaultMask::new();
    repeat(3, 50, 0.3, || {
        tr.span("topology.routes", || topo.compute_routes_masked(&healthy))
    })
}

/// Median milliseconds per incremental repair when the workload's
/// fault plan is replayed event by event through `repair_routes`; 0 for
/// workloads without a plan.
pub fn repair_ms(wl: Workload, topo: &mut Topology, seed: u64, tr: &mut Tracer) -> f64 {
    let Some(plan) = wl.generate(topo, seed).1 else {
        return 0.0;
    };
    let mut events = plan.events().to_vec();
    events.sort_by_key(|e| e.at);
    let mut mask = FaultMask::new();
    let mut times = Vec::new();
    for ev in events {
        match ev.action {
            FaultAction::LinkDown { node, port } => mask.fail_link(topo, node, port),
            FaultAction::LinkUp { node, port } => mask.restore_link(topo, node, port),
            FaultAction::SwitchDown { switch } => mask.fail_node(switch),
            FaultAction::SwitchUp { switch } => mask.restore_node(switch),
            FaultAction::RateChange { .. } => continue,
        }
        let t = Instant::now();
        tr.span("topology.repair", || topo.repair_routes(&mask));
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&times)
}

/// Nanoseconds per `try_next_ports_at` lookup over a seeded sample of
/// (switch, destination) pairs on the healthy fabric.
pub fn forwarding_ns(topo: &Topology, seed: u64, tr: &mut Tracer) -> f64 {
    let switches: Vec<u32> = (0..topo.node_count() as u32)
        .filter(|&n| topo.kind(NodeId(n)) == NodeKind::Switch)
        .collect();
    let hosts = topo.hosts().len() as u64;
    let mut rng = Pcg32::new(seed ^ 0xF0D);
    let sample: Vec<(NodeId, usize)> = (0..1 << 16)
        .map(|_| {
            let sw = switches[rng.below(switches.len() as u64) as usize];
            (NodeId(sw), rng.below(hosts) as usize)
        })
        .collect();
    let times = repeat(5, 1000, 0.25, || {
        tr.span("topology.forward", || {
            let mut ports = 0usize;
            for &(node, dst) in black_box(&sample) {
                ports += topo.try_next_ports_at(0, node, dst).len();
            }
            black_box(ports);
        })
    });
    median(&times) * 1e9 / sample.len() as f64
}

/// The serial run of `seed` replayed on the 2-shard event loop.
pub struct ShardReplay {
    /// Serial event-loop seconds over 2-shard event-loop seconds.
    pub speedup: f64,
    /// The replay's fabric counters (shard-machinery fields included).
    pub stats: netsim::FabricStats,
    /// Whether the replay matched the serial run: same flows, same
    /// fabric counters under `FabricStats::shard_invariant`.
    pub identical: bool,
    /// Sessions the replay started and the ones it failed.
    pub attempted: usize,
    /// See `attempted`.
    pub failed: usize,
}

/// Replay `serial` (the untraced run of `seed`) on two shards; only the
/// event loops are compared, so the topology build does not dilute the
/// ratio.
pub fn shard_replay(wl: Workload, seed: u64, serial: &RunOutcome, tr: &mut Tracer) -> ShardReplay {
    let sharded = workloads::run_guarded(wl, seed, 2, tr);
    let identical = sharded.as_ref().is_some_and(|s| {
        s.fingerprint == serial.fingerprint
            && s.stats.shard_invariant() == serial.stats.shard_invariant()
    });
    let failed = match &sharded {
        Some(s) if identical => s.failed,
        _ => serial.attempted,
    };
    ShardReplay {
        speedup: sharded.as_ref().map_or(0.0, |s| serial.loop_s / s.loop_s),
        stats: sharded.map(|s| s.stats).unwrap_or_default(),
        identical,
        attempted: serial.attempted,
        failed,
    }
}

/// Codec throughput at one object size, in MB/s of object bytes.
pub struct CodecProbe {
    /// Encoder construction (intermediate symbols) over the object.
    pub encode_mbps: f64,
    /// Repair-symbol generation.
    pub symbol_mbps: f64,
    /// Decode with every source symbol present (no solve).
    pub decode_fast_mbps: f64,
    /// Decode with 10 % of the source symbols lost (reduced solve).
    pub decode_solver_mbps: f64,
    /// Decodes checked against the source bytes.
    pub attempted: usize,
    /// Decodes that failed or returned other bytes.
    pub failed: usize,
}

/// Encode and decode one seeded object of `bytes` bytes with the
/// transport's symbol size; every decode is compared with the source.
pub fn codec(bytes: usize, symbol_size: usize, seed: u64, tr: &mut Tracer) -> CodecProbe {
    let mut rng = Pcg32::new(seed ^ 0xC0DE);
    let data: Vec<u8> = (0..bytes).map(|_| rng.next_u32() as u8).collect();
    let mb = bytes as f64 / 1e6;
    let enc_times = repeat(3, 200, 0.3, || {
        black_box(
            tr.span("rq.encode", || Encoder::new(&data, symbol_size))
                .expect("non-empty"),
        );
    });
    let enc = Encoder::new(&data, symbol_size).expect("non-empty");
    let k = enc.params().k as u32;
    let sym_times = repeat(3, 200, 0.3, || {
        tr.span("rq.symbol", || {
            for esi in k..2 * k {
                black_box(enc.symbol(esi));
            }
        })
    });

    let mut full = Decoder::new(enc.params());
    for esi in 0..k {
        full.push(esi, enc.symbol(esi));
    }
    let mut fast_out = None;
    let fast_times = repeat(3, 200, 0.3, || {
        fast_out = Some(tr.span("rq.decode_fast", || full.try_decode()));
    });

    // 10 % of the source symbols lost and made up by repair symbols, one
    // more for each failed attempt, as a receiver would pull them.
    let lost: Vec<bool> = (0..k).map(|_| rng.below(10) == 0).collect();
    let mut lossy = Decoder::new(enc.params());
    for esi in (0..k).filter(|&e| !lost[e as usize]) {
        lossy.push(esi, enc.symbol(esi));
    }
    let mut next_repair = k;
    while lossy.symbols_received() < k as usize
        || (lossy.try_decode().is_err() && next_repair < 2 * k)
    {
        lossy.push(next_repair, enc.symbol(next_repair));
        next_repair += 1;
    }
    let mut solver_out = None;
    let solver_times = repeat(3, 200, 0.3, || {
        solver_out = Some(tr.span("rq.decode_solver", || lossy.try_decode()));
    });

    // Both decodes are deterministic: the last of each stands for all.
    let decodes = [fast_out, solver_out];
    let failed = decodes
        .iter()
        .filter(|out| !matches!(out, Some(Ok(bytes)) if *bytes == data))
        .count();
    CodecProbe {
        encode_mbps: mb / median(&enc_times),
        symbol_mbps: mb / median(&sym_times),
        decode_fast_mbps: mb / median(&fast_times),
        decode_solver_mbps: mb / median(&solver_times),
        attempted: decodes.len(),
        failed,
    }
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
