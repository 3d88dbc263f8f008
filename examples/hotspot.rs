//! Network hotspots (the paper's "current work" §3): what happens when
//! part of the fabric degrades mid-run?
//!
//! 30% of the switch-to-switch links are degraded to 10% of line rate.
//! Per-packet spraying spreads every transfer across all paths, so each
//! one loses only the *average* capacity; per-flow ECMP pins unlucky
//! transfers onto slow paths for their entire lifetime. Path redundancy,
//! embraced vs. ignored.
//!
//! ```sh
//! cargo run --release --example hotspot
//! ```

use polyraptor_repro::netsim::RouteMode;
use polyraptor_repro::workload::{run_hotspot, Fabric, HotspotScenario, RankCurve, RqRunOptions};

fn main() {
    let sc = HotspotScenario {
        transfers: 8,
        object_bytes: 2 << 20,
        degraded_frac: 0.3,
        degraded_rate_frac: 0.1,
        seed: 11,
    };
    println!("8 x 2MB transfers on a 16-host fat-tree; 30% of fabric links at 10% rate\n");
    for (label, route) in [
        ("spray (Polyraptor)", RouteMode::Spray),
        ("per-flow ECMP", RouteMode::EcmpFlow),
    ] {
        let opts = RqRunOptions {
            route,
            ..Default::default()
        };
        let res = run_hotspot(&sc, &Fabric::small(), &opts).flows;
        let curve = RankCurve::new(res.iter().map(|r| r.goodput_gbps()).collect());
        println!(
            "  {label:<20} best {:.3}  median {:.3}  worst {:.3} Gbps",
            curve.at(0),
            curve.median(),
            curve.at(curve.len() - 1)
        );
    }
    println!(
        "\nSpraying degrades gracefully (every flow sees the average path);\n\
         ECMP craters whichever flows hash onto the hot links."
    );
}
