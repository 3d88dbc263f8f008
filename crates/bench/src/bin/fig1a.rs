//! Figure 1a — Multicast (replication write) goodput rank curves.
//!
//! Reproduces: 250-host fat-tree, 4 MB objects, Poisson λ = 2560/s,
//! 20 % background, permutation traffic matrix; four configurations:
//! {1, 3} replicas × {Polyraptor (RQ), TCP multi-unicast}.
//!
//! Run `cargo run --release -p polyraptor-bench --bin fig1a -- --full`
//! for the paper's exact scale, or with no flags for a faster default.

use polyraptor_bench::{average_rank_curves, print_series_table, run_parallel, FigOptions};
use workload::{
    foreground_goodputs, run_storage, RankCurve, RqRunOptions, StorageScenario, TcpRunOptions,
};

fn main() {
    let o = FigOptions::parse(std::env::args().skip(1));
    std::fs::create_dir_all(&o.out).expect("create out dir");
    eprintln!(
        "fig1a: {} sessions x {} seeds on {}",
        o.sessions,
        o.seeds.len(),
        o.fabric.describe()
    );

    // (label, replicas, rq?) — the four curves of the figure.
    let configs: [(&str, usize, bool); 4] = [
        ("RQ-1rep", 1, true),
        ("RQ-3rep", 3, true),
        ("TCP-1rep", 1, false),
        ("TCP-3rep", 3, false),
    ];

    let mut jobs: Vec<Box<dyn FnOnce() -> (usize, RankCurve) + Send>> = Vec::new();
    for (ci, &(_, replicas, rq)) in configs.iter().enumerate() {
        for &seed in &o.seeds {
            let sessions = o.sessions;
            let fabric = o.fabric;
            jobs.push(Box::new(move || {
                let sc = StorageScenario::fig1a(sessions, replicas, seed);
                let results = if rq {
                    run_storage(&sc, &fabric, &RqRunOptions::default())
                } else {
                    run_storage(&sc, &fabric, &TcpRunOptions::default())
                };
                (ci, RankCurve::new(foreground_goodputs(&results.flows)))
            }));
        }
    }
    let outputs = run_parallel(jobs);

    let mut per_config: Vec<Vec<RankCurve>> = (0..configs.len()).map(|_| Vec::new()).collect();
    for (ci, curve) in outputs {
        per_config[ci].push(curve);
    }

    // Averaged sampled curves, one column per configuration.
    let sampled: Vec<Vec<(f64, f64)>> = per_config
        .iter()
        .map(|curves| average_rank_curves(curves, o.points))
        .collect();
    let rows: Vec<Vec<f64>> = (0..o.points)
        .map(|i| {
            let mut row = vec![sampled[0][i].0];
            for s in &sampled {
                row.push(s[i].1);
            }
            row
        })
        .collect();
    let labels: Vec<&str> = configs.iter().map(|c| c.0).collect();
    print_series_table(
        "Figure 1a — Multicast: goodput (Gbps) vs rank of transport session",
        "rank",
        &labels,
        &rows,
    );

    // Persist the full curves.
    let mut header = vec!["rank"];
    header.extend(&labels);
    workload::csv::write_csv(&o.out.join("fig1a.csv"), &header, rows.clone())
        .expect("write fig1a.csv");
    eprintln!("wrote {}", o.out.join("fig1a.csv").display());

    // Headline summary (medians) for EXPERIMENTS.md.
    for (c, curves) in configs.iter().zip(&per_config) {
        let med = workload::mean(&curves.iter().map(|c| c.median()).collect::<Vec<_>>());
        println!("# median {}: {:.3} Gbps", c.0, med);
    }
}
