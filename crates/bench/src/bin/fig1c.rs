//! Figure 1c — Incast: goodput vs number of synchronized senders.
//!
//! N senders each hold one stripe of a block (256 KB / 70 KB) and
//! transmit to one client simultaneously. Error bars are the 95%
//! confidence interval over the seeds (the paper uses 5 repetitions).
//! Polyraptor (trimming + rateless pulls) should stay near line rate;
//! TCP collapses as N grows (RTOmin-driven Incast).

use polyraptor_bench::{print_series_table, run_parallel, FigOptions};
use workload::{mean_ci95, run_incast, IncastScenario, RqRunOptions, TcpRunOptions};

fn main() {
    let mut o = FigOptions::parse(std::env::args().skip(1));
    if o.seeds.len() < 2 {
        // CI needs repetitions; match the paper's 5 seeds by default.
        o.seeds = vec![1, 2, 3, 4, 5];
    }
    std::fs::create_dir_all(&o.out).expect("create out dir");
    let hosts = o.fabric.host_count();
    let mut sender_counts: Vec<usize> = vec![2, 4, 8, 16, 24, 32, 40, 48, 56, 64, 70];
    sender_counts.retain(|&n| n < hosts); // small fabrics cap the sweep
    let blocks: [(&str, usize); 2] = [("256KB", 256 << 10), ("70KB", 70 << 10)];
    eprintln!(
        "fig1c: senders {:?} x {} seeds on {}",
        sender_counts,
        o.seeds.len(),
        o.fabric.describe()
    );

    // Jobs: (config, senders, seed) → goodput.
    #[allow(clippy::type_complexity)]
    let mut jobs: Vec<Box<dyn FnOnce() -> (usize, usize, f64) + Send>> = Vec::new();
    for (bi, &(_, block)) in blocks.iter().enumerate() {
        for (ni, &n) in sender_counts.iter().enumerate() {
            for &seed in &o.seeds {
                let fabric = o.fabric;
                // RQ job.
                jobs.push(Box::new(move || {
                    let sc = IncastScenario {
                        senders: n,
                        block_bytes: block,
                        seed,
                    };
                    (
                        bi * 2,
                        ni,
                        run_incast(&sc, &fabric, &RqRunOptions::default()).flows[0].goodput_gbps(),
                    )
                }));
                // TCP job.
                jobs.push(Box::new(move || {
                    let sc = IncastScenario {
                        senders: n,
                        block_bytes: block,
                        seed,
                    };
                    (
                        bi * 2 + 1,
                        ni,
                        run_incast(&sc, &fabric, &TcpRunOptions::default()).flows[0].goodput_gbps(),
                    )
                }));
            }
        }
    }
    let outputs = run_parallel(jobs);

    // configs: 0 = RQ 256KB, 1 = TCP 256KB, 2 = RQ 70KB, 3 = TCP 70KB.
    let labels = ["RQ 256KB", "TCP 256KB", "RQ 70KB", "TCP 70KB"];
    let mut acc: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); sender_counts.len()]; 4];
    for (ci, ni, g) in outputs {
        acc[ci][ni].push(g);
    }

    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut csv_rows: Vec<Vec<f64>> = Vec::new();
    for (ni, &n) in sender_counts.iter().enumerate() {
        let mut row = vec![n as f64];
        let mut csv_row = vec![n as f64];
        for series in acc.iter() {
            let (m, ci) = mean_ci95(&series[ni]);
            row.push(m);
            csv_row.push(m);
            csv_row.push(ci);
        }
        rows.push(row);
        csv_rows.push(csv_row);
    }
    print_series_table(
        "Figure 1c — Incast: goodput (Gbps) vs number of parallel senders (means)",
        "senders",
        &labels,
        &rows,
    );
    workload::csv::write_csv(
        &o.out.join("fig1c.csv"),
        &[
            "senders",
            "rq256_mean",
            "rq256_ci95",
            "tcp256_mean",
            "tcp256_ci95",
            "rq70_mean",
            "rq70_ci95",
            "tcp70_mean",
            "tcp70_ci95",
        ],
        csv_rows,
    )
    .expect("write fig1c.csv");
    eprintln!("wrote {}", o.out.join("fig1c.csv").display());
}
