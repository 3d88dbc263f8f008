//! Figure 1b — Multi-source (fetch) goodput rank curves.
//!
//! Clients fetch 4 MB objects that exist on {1, 3} replica servers:
//! Polyraptor pulls statistically unique symbols from all replicas at
//! once; TCP fetches one partition from each replica without
//! coordination. Same fabric and arrival process as Figure 1a.

use polyraptor_bench::{average_rank_curves, print_series_table, run_parallel, FigOptions};
use workload::{
    foreground_goodputs, run_storage, RankCurve, RqRunOptions, StorageScenario, TcpRunOptions,
};

fn main() {
    let o = FigOptions::parse(std::env::args().skip(1));
    std::fs::create_dir_all(&o.out).expect("create out dir");
    eprintln!(
        "fig1b: {} sessions x {} seeds on {}",
        o.sessions,
        o.seeds.len(),
        o.fabric.describe()
    );

    let configs: [(&str, usize, bool); 4] = [
        ("RQ-1snd", 1, true),
        ("RQ-3snd", 3, true),
        ("TCP-1snd", 1, false),
        ("TCP-3snd", 3, false),
    ];

    let mut jobs: Vec<Box<dyn FnOnce() -> (usize, RankCurve) + Send>> = Vec::new();
    for (ci, &(_, senders, rq)) in configs.iter().enumerate() {
        for &seed in &o.seeds {
            let sessions = o.sessions;
            let fabric = o.fabric;
            jobs.push(Box::new(move || {
                let sc = StorageScenario::fig1b(sessions, senders, seed);
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
        "Figure 1b — Multi-source: goodput (Gbps) vs rank of transport session",
        "rank",
        &labels,
        &rows,
    );
    let mut header = vec!["rank"];
    header.extend(&labels);
    workload::csv::write_csv(&o.out.join("fig1b.csv"), &header, rows.clone())
        .expect("write fig1b.csv");
    eprintln!("wrote {}", o.out.join("fig1b.csv").display());
    for (c, curves) in configs.iter().zip(&per_config) {
        let med = workload::mean(&curves.iter().map(|c| c.median()).collect::<Vec<_>>());
        println!("# median {}: {:.3} Gbps", c.0, med);
    }
}
