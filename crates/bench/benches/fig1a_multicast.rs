//! E1 (scaled) — Figure 1a: multicast replication vs TCP multi-unicast.
//!
//! Criterion-sized version of `src/bin/fig1a.rs`: a 16-host fabric and a
//! few dozen sessions per run. Prints the four medians once (shape
//! check: RQ-3rep ≈ RQ-1rep; TCP-3rep ≤ uplink/3) and benches the
//! end-to-end simulation wall time. The full-scale figure comes from
//! `cargo run --release -p polyraptor-bench --bin fig1a -- --full`.

use criterion::{criterion_group, criterion_main, Criterion};
use workload::{
    foreground_goodputs, run_storage, Fabric, RankCurve, RqRunOptions, StorageScenario,
    TcpRunOptions,
};

const SESSIONS: usize = 40;

fn print_medians() {
    for (label, reps, rq) in [
        ("RQ-1rep", 1usize, true),
        ("RQ-3rep", 3, true),
        ("TCP-1rep", 1, false),
        ("TCP-3rep", 3, false),
    ] {
        let sc = StorageScenario::fig1a(SESSIONS, reps, 1);
        let res = if rq {
            run_storage(&sc, &Fabric::small(), &RqRunOptions::default())
        } else {
            run_storage(&sc, &Fabric::small(), &TcpRunOptions::default())
        };
        let c = RankCurve::new(foreground_goodputs(&res.flows));
        println!("# fig1a(scaled) median {label}: {:.3} Gbps", c.median());
    }
}

fn fig1a_scaled(c: &mut Criterion) {
    print_medians();
    let mut g = c.benchmark_group("fig1a");
    g.sample_size(10);
    g.bench_function("rq_3rep_40sessions_k4", |b| {
        b.iter(|| {
            let sc = StorageScenario::fig1a(SESSIONS, 3, 1);
            run_storage(&sc, &Fabric::small(), &RqRunOptions::default())
        })
    });
    g.bench_function("tcp_3rep_40sessions_k4", |b| {
        b.iter(|| {
            let sc = StorageScenario::fig1a(SESSIONS, 3, 1);
            run_storage(&sc, &Fabric::small(), &TcpRunOptions::default())
        })
    });
    g.finish();
}

criterion_group!(benches, fig1a_scaled);
criterion_main!(benches);
