//! The run pipeline: every scenario under every transport reports
//! exactly the pinned per-seed result, and honours every run option.
//!
//! * **Pinned reports.** For each scenario × transport on the 16-host
//!   fat-tree, a fixed FNV-1a hash of the per-flow
//!   `(session, start, finish, bytes)` list, the shard-invariant
//!   [`FabricStats`] and the timeout count. The hashes were recorded
//!   from the per-scenario runners the pipeline replaced, so any drift
//!   in set-up order, seeding or collection shows here. The TCP hotspot
//!   run had no runner before the pipeline; its hash was pinned when the
//!   generic entry point introduced it. The fault and churn hashes were
//!   re-pinned when route columns became keyed by access switch: only
//!   `FabricStats::route_dests_rebuilt` moved (it now counts
//!   access-switch columns); with that field zeroed, all twelve hashes
//!   are unchanged. All twelve were re-pinned again when transmit
//!   completions that find nothing to send stopped being events: only
//!   `FabricStats::events` moved; with that field zeroed, all twelve
//!   hashes are unchanged.
//! * **Options honoured.** `shards = 2` must run the sharded loop
//!   (`shard_epochs > 0`) and reproduce the serial run; enabled
//!   telemetry must return a recording and change nothing else.

use polyraptor_repro::netsim::FabricStats;
use polyraptor_repro::workload::scenario::PAPER_LAMBDA_PER_HOST;
use polyraptor_repro::workload::{
    run_churn, run_fault, run_hotspot, run_incast, run_storage, ChurnScenario, Fabric,
    FaultScenario, HotspotScenario, IncastScenario, Pattern, RunOptions, RunReport,
    StorageScenario, TelemetryOptions, Transport,
};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The per-flow fingerprint every comparison below uses.
fn flows(rep: &RunReport) -> Vec<(u32, u64, u64, usize)> {
    rep.flows
        .iter()
        .map(|f| (f.session, f.start.as_nanos(), f.finish.as_nanos(), f.bytes))
        .collect()
}

fn pin(rep: &RunReport) -> u64 {
    let stats: FabricStats = rep.fabric.shard_invariant();
    fnv1a(format!("{:?}|{stats:?}|{}", flows(rep), rep.timeouts).as_bytes())
}

fn storage(pattern: Pattern, seed: u64) -> StorageScenario {
    StorageScenario {
        sessions: 12,
        object_bytes: 128 << 10,
        replicas: 3,
        lambda_per_host: PAPER_LAMBDA_PER_HOST,
        normalize_load: true,
        shared_risk_placement: false,
        background_frac: 0.2,
        pattern,
        seed,
    }
}

/// A named scenario entry point, run on the 16-host fat-tree.
type Scenario<C> = (&'static str, Box<dyn Fn(&RunOptions<C>) -> RunReport>);

fn scenarios<C: Transport>() -> Vec<Scenario<C>> {
    let f = Fabric::small();
    vec![
        (
            "storage_write",
            Box::new(move |o| run_storage(&storage(Pattern::Write, 5), &f, o)),
        ),
        (
            "storage_read",
            Box::new(move |o| run_storage(&storage(Pattern::Read, 6), &f, o)),
        ),
        (
            "incast",
            Box::new(move |o| {
                let sc = IncastScenario {
                    senders: 6,
                    block_bytes: 128 << 10,
                    seed: 3,
                };
                run_incast(&sc, &f, o)
            }),
        ),
        (
            "fault",
            Box::new(move |o| run_fault(&FaultScenario::fig1_failure(4, 128 << 10, 11), &f, o).run),
        ),
        (
            "churn",
            Box::new(move |o| run_churn(&ChurnScenario::ten_event(6, 128 << 10, 3), &f, o).run),
        ),
        (
            "hotspot",
            Box::new(move |o| {
                let sc = HotspotScenario {
                    transfers: 6,
                    object_bytes: 256 << 10,
                    degraded_frac: 0.3,
                    degraded_rate_frac: 0.1,
                    seed: 11,
                };
                run_hotspot(&sc, &f, o)
            }),
        ),
    ]
}

const RQ_PINS: [(&str, u64); 6] = [
    ("storage_write", 0x1d1c_3b9f_3931_284e),
    ("storage_read", 0x1b43_7e3d_a3db_930c),
    ("incast", 0xc46b_610d_4028_f52f),
    ("fault", 0xd0c0_ee57_9408_bc0e),
    ("churn", 0x5c72_b956_8726_871c),
    ("hotspot", 0x561a_ade1_57c2_8c6f),
];

const TCP_PINS: [(&str, u64); 6] = [
    ("storage_write", 0x6e70_fc3d_1a9b_4e36),
    ("storage_read", 0x3b4f_c8a7_cc58_9b2e),
    ("incast", 0x4a8d_b52d_60e8_1d16),
    ("fault", 0x4f11_79fe_ce7d_dce9),
    ("churn", 0x2751_0b54_0366_49d1),
    ("hotspot", 0x58dc_57a8_deb8_bbb9),
];

fn check_pins<C: Transport>(pins: &[(&str, u64)]) {
    let mut wrong = Vec::new();
    for ((name, run), &(pinned_name, pinned)) in scenarios::<C>().into_iter().zip(pins) {
        assert_eq!(name, pinned_name);
        let got = pin(&run(&RunOptions::default()));
        if got != pinned {
            wrong.push(format!("{name}: 0x{got:016x} (pinned 0x{pinned:016x})"));
        }
    }
    assert!(wrong.is_empty(), "reports drifted: {wrong:?}");
}

fn check_options_honoured<C: Transport>() {
    for (name, run) in scenarios::<C>() {
        let serial = run(&RunOptions::default());
        assert_eq!(serial.fabric.shard_epochs, 0, "{name}: serial by default");
        assert!(
            serial.telemetry.is_none(),
            "{name}: telemetry off by default"
        );

        let sharded = run(&RunOptions {
            shards: 2,
            ..Default::default()
        });
        assert!(
            sharded.fabric.shard_epochs > 0,
            "{name}: shards = 2 must run the sharded loop"
        );
        assert_eq!(
            sharded.fabric.shard_invariant(),
            serial.fabric.shard_invariant(),
            "{name}: sharded stats"
        );
        assert_eq!(flows(&sharded), flows(&serial), "{name}: sharded flows");
        assert_eq!(
            sharded.timeouts, serial.timeouts,
            "{name}: sharded timeouts"
        );

        let recorded = run(&RunOptions {
            telemetry: TelemetryOptions::enabled_default(),
            ..Default::default()
        });
        let t = recorded
            .telemetry
            .as_ref()
            .unwrap_or_else(|| panic!("{name}: enabled telemetry must return a recording"));
        assert!(!t.recorder.buckets().is_empty(), "{name}: buckets sampled");
        assert_eq!(recorded.fabric, serial.fabric, "{name}: recorded stats");
        assert_eq!(flows(&recorded), flows(&serial), "{name}: recorded flows");
        assert_eq!(
            recorded.timeouts, serial.timeouts,
            "{name}: recorded timeouts"
        );

        let threaded = run(&RunOptions {
            parallelism: 2,
            ..Default::default()
        });
        assert_eq!(threaded.fabric, serial.fabric, "{name}: threaded stats");
        assert_eq!(flows(&threaded), flows(&serial), "{name}: threaded flows");
    }
}

#[test]
fn rq_reports_match_pins() {
    check_pins::<polyraptor_repro::polyraptor::PrConfig>(&RQ_PINS);
}

#[test]
fn tcp_reports_match_pins() {
    check_pins::<polyraptor_repro::tcpsim::TcpConfig>(&TCP_PINS);
}

#[test]
fn rq_runs_honour_every_option() {
    check_options_honoured::<polyraptor_repro::polyraptor::PrConfig>();
}

#[test]
fn tcp_runs_honour_every_option() {
    check_options_honoured::<polyraptor_repro::tcpsim::TcpConfig>();
}
