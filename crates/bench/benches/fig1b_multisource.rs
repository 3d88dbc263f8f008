//! E2 (scaled) — Figure 1b: multi-source fetch vs TCP partitioned fetch.
//!
//! Shape check: RQ-3snd ≥ RQ-1snd (replica load balancing) while
//! TCP-3snd sits near the per-stripe fair share. Full scale:
//! `cargo run --release -p polyraptor-bench --bin fig1b -- --full`.

use criterion::{criterion_group, criterion_main, Criterion};
use workload::{
    foreground_goodputs, run_storage, Fabric, RankCurve, RqRunOptions, StorageScenario,
    TcpRunOptions,
};

const SESSIONS: usize = 40;

fn print_medians() {
    for (label, senders, rq) in [
        ("RQ-1snd", 1usize, true),
        ("RQ-3snd", 3, true),
        ("TCP-1snd", 1, false),
        ("TCP-3snd", 3, false),
    ] {
        let sc = StorageScenario::fig1b(SESSIONS, senders, 1);
        let res = if rq {
            run_storage(&sc, &Fabric::small(), &RqRunOptions::default())
        } else {
            run_storage(&sc, &Fabric::small(), &TcpRunOptions::default())
        };
        let c = RankCurve::new(foreground_goodputs(&res.flows));
        println!("# fig1b(scaled) median {label}: {:.3} Gbps", c.median());
    }
}

fn fig1b_scaled(c: &mut Criterion) {
    print_medians();
    let mut g = c.benchmark_group("fig1b");
    g.sample_size(10);
    g.bench_function("rq_3snd_40sessions_k4", |b| {
        b.iter(|| {
            let sc = StorageScenario::fig1b(SESSIONS, 3, 1);
            run_storage(&sc, &Fabric::small(), &RqRunOptions::default())
        })
    });
    g.bench_function("tcp_3snd_40sessions_k4", |b| {
        b.iter(|| {
            let sc = StorageScenario::fig1b(SESSIONS, 3, 1);
            run_storage(&sc, &Fabric::small(), &TcpRunOptions::default())
        })
    });
    g.finish();
}

criterion_group!(benches, fig1b_scaled);
criterion_main!(benches);
