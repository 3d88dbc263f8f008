//! The sharded event loop's headline contract, end to end: a churn
//! soak (all four fault classes, repairs, re-targeting) produces
//! byte-identical results at every shard count. The event tie-break
//! key `(time, rank, per-node seq)` is a pure function of simulated
//! causality, so the serial loop and conservative-window shard
//! workers replay the same total order no matter how events are
//! distributed — fingerprints at 1/2/4 shards must match field for
//! field on all three topology families.

use polyraptor_repro::workload::{run_churn, ChurnReport, ChurnScenario, Fabric, RqRunOptions};

/// Mixed churn: the default [`polyraptor_repro::netsim::FaultMix`]
/// draws links, flaps, switches, and host failures, so the identity
/// claim covers global fault application, reroutes, queue flushes,
/// and session re-targeting — not just steady-state forwarding.
fn scenario() -> ChurnScenario {
    let mut sc = ChurnScenario::ten_event(6, 1 << 20, 2);
    sc.fault_events = 12;
    sc
}

fn fingerprint(rep: &ChurnReport) -> Vec<(u32, u64, u64, usize)> {
    rep.run
        .flows
        .iter()
        .map(|f| (f.session, f.start.as_nanos(), f.finish.as_nanos(), f.bytes))
        .collect()
}

fn run(fabric: &Fabric, shards: usize) -> ChurnReport {
    let opts = RqRunOptions {
        shards,
        ..Default::default()
    };
    run_churn(&scenario(), fabric, &opts)
}

#[test]
fn sharded_run_byte_identical_to_serial() {
    let fabrics = [
        ("fat-tree", Fabric::small()),
        ("leaf-spine", Fabric::small_leaf_spine()),
        ("jellyfish", Fabric::small_jellyfish()),
    ];
    for (name, fabric) in fabrics {
        let serial = run(&fabric, 1);
        assert_eq!(
            serial.run.fabric.shard_epochs, 0,
            "{name}: one shard is the serial loop, no epochs"
        );
        for shards in [2usize, 4] {
            let sharded = run(&fabric, shards);
            // Everything except the shard-machinery counters matches
            // field for field: forwarding, drops, trims, faults,
            // reroutes, per-layer accounting, telemetry-visible stats.
            assert_eq!(
                serial.run.fabric.shard_invariant(),
                sharded.run.fabric.shard_invariant(),
                "{name}: fabric stats diverged at {shards} shards"
            );
            assert_eq!(
                fingerprint(&serial),
                fingerprint(&sharded),
                "{name}: per-flow timings diverged at {shards} shards"
            );
            assert_eq!(serial.run.timeouts, sharded.run.timeouts, "{name}");
            assert_eq!(
                serial.retargets.stranded_sessions, sharded.retargets.stranded_sessions,
                "{name}"
            );
            assert_eq!(
                serial.retargets.retargeted_sessions, sharded.retargets.retargeted_sessions,
                "{name}"
            );
            assert_eq!(
                serial.retargets.retarget_symbols, sharded.retargets.retarget_symbols,
                "{name}"
            );
            assert_eq!(serial.fault_instants, sharded.fault_instants, "{name}");
            // The sharded loop really ran sharded: epochs advanced and
            // traffic crossed shard boundaries (every family routes
            // through a spine/core another shard owns at this scale).
            assert!(
                sharded.run.fabric.shard_epochs > 0,
                "{name}: {shards}-shard run never opened an epoch"
            );
            assert!(
                sharded.run.fabric.cross_shard_packets > 0,
                "{name}: {shards}-shard run exchanged no cross-shard packets"
            );
        }
    }
}

/// Telemetry recorded at 1, 2 and 4 shards is identical: buckets close
/// against the same counters and probes, and notes written during
/// dispatch replay in the same order. Layered routing under churn makes
/// switches re-assign flows, so `LayerReassign` notes are buffered and
/// replayed alongside the fault and reroute annotations.
#[test]
fn sharded_telemetry_identical_to_one_shard() {
    use polyraptor_repro::netsim::{FabricEvent, RoutingPolicy};
    use polyraptor_repro::workload::TelemetryOptions;

    let fabric = Fabric::small();
    for seed in [2u64, 3] {
        let mut sc = ChurnScenario::ten_event(6, 1 << 20, seed);
        sc.fault_events = 12;
        let record = |shards: usize| {
            let opts = RqRunOptions {
                shards,
                policy: RoutingPolicy::layered(3, 7),
                telemetry: TelemetryOptions::enabled_default(),
                ..Default::default()
            };
            let t = run_churn(&sc, &fabric, &opts)
                .run
                .telemetry
                .expect("enabled run records");
            (
                t.fabric_series_csv(),
                t.port_series_csv(),
                t.recorder.annotations().to_vec(),
                format!("{:?}", t.recorder.dumps()),
            )
        };
        let one = record(1);
        let reassigns = one
            .2
            .iter()
            .filter(|a| matches!(a.event, FabricEvent::LayerReassign { .. }))
            .count();
        assert!(
            reassigns > 0,
            "seed {seed}: no LayerReassign note to replay"
        );
        for shards in [2usize, 4] {
            let sharded = record(shards);
            assert_eq!(
                one.0, sharded.0,
                "seed {seed}: fabric series at {shards} shards"
            );
            assert_eq!(
                one.1, sharded.1,
                "seed {seed}: port series at {shards} shards"
            );
            assert_eq!(
                one.2, sharded.2,
                "seed {seed}: annotations at {shards} shards"
            );
            assert_eq!(
                one.3, sharded.3,
                "seed {seed}: flight dumps at {shards} shards"
            );
        }
    }
}
