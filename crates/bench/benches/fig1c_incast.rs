//! E3 (scaled) — Figure 1c: the Incast exchange.
//!
//! Shape check at one representative point (8 synchronized senders on
//! the 16-host fabric): Polyraptor sustains near line rate where TCP
//! collapses into RTOmin stalls. The full sweep (2..70 senders, 95% CI
//! over 5 seeds) is `--bin fig1c`.

use criterion::{criterion_group, criterion_main, Criterion};
use workload::{run_incast, Fabric, IncastScenario, RqRunOptions, TcpRunOptions};

fn print_point() {
    for (label, block) in [("256KB", 256usize << 10), ("70KB", 70 << 10)] {
        let sc = IncastScenario {
            senders: 8,
            block_bytes: block,
            seed: 1,
        };
        let rq =
            run_incast(&sc, &Fabric::small(), &RqRunOptions::default()).flows[0].goodput_gbps();
        let tcp =
            run_incast(&sc, &Fabric::small(), &TcpRunOptions::default()).flows[0].goodput_gbps();
        println!("# fig1c(scaled) 8 senders {label}: RQ {rq:.3} Gbps vs TCP {tcp:.3} Gbps");
    }
}

fn fig1c_scaled(c: &mut Criterion) {
    print_point();
    let mut g = c.benchmark_group("fig1c");
    g.sample_size(10);
    g.bench_function("rq_8senders_256KB", |b| {
        b.iter(|| {
            let sc = IncastScenario {
                senders: 8,
                block_bytes: 256 << 10,
                seed: 1,
            };
            run_incast(&sc, &Fabric::small(), &RqRunOptions::default())
        })
    });
    g.bench_function("tcp_8senders_256KB", |b| {
        b.iter(|| {
            let sc = IncastScenario {
                senders: 8,
                block_bytes: 256 << 10,
                seed: 1,
            };
            run_incast(&sc, &Fabric::small(), &TcpRunOptions::default())
        })
    });
    g.finish();
}

criterion_group!(benches, fig1c_scaled);
criterion_main!(benches);
