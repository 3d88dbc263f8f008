//! The three benchmark workloads and one seeded run of each.
//!
//! A run repeats, call for call, what `workload::run_storage_rq` and
//! `workload::run_churn_rq` do, with a span around every call into a
//! layer, and collects its outputs without panicking so that a broken
//! session counts as failed instead of ending the benchmark.

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

use netsim::{FabricStats, FaultPlan, Pcg32, SimConfig, Simulator, Topology};
use polyraptor::{host_fail_token, host_up_token, PolyraptorAgent, PrConfig};
use workload::fault::REROUTE_DELAY_NS;
use workload::{
    build_rq_specs, install_rq, ChurnScenario, Fabric, LogicalSession, Pattern, StorageScenario,
};

use crate::trace::Tracer;

/// A named benchmark workload. Why each exists is in the README.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 1a: 3-replica multicast writes of 4 MB objects on the
    /// paper's k=10 fat-tree, counting oracle.
    PaperWrite,
    /// 3-replica 1 MB fetches on the 5 000-host Jellyfish under the
    /// ten-event Poisson churn plan.
    ChurnJellyfish,
    /// Figure 1b-style 3-replica reads of 256 KB objects on the k=10
    /// fat-tree with real encoding and decoding.
    FetchRealCodec,
}

impl Workload {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperWrite,
        Workload::ChurnJellyfish,
        Workload::FetchRealCodec,
    ];

    /// The name the command line takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperWrite => "paper_write",
            Workload::ChurnJellyfish => "churn_jellyfish",
            Workload::FetchRealCodec => "fetch_real_codec",
        }
    }

    /// The workload called `name`, if any.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The simulated fabric.
    pub fn fabric(self) -> Fabric {
        match self {
            Workload::PaperWrite | Workload::FetchRealCodec => Fabric::paper(),
            Workload::ChurnJellyfish => Fabric::large_jellyfish(),
        }
    }

    /// Object size per session in bytes.
    pub fn object_bytes(self) -> usize {
        match self {
            Workload::PaperWrite => 4 << 20,
            Workload::ChurnJellyfish => 1 << 20,
            Workload::FetchRealCodec => 256 << 10,
        }
    }

    /// Sessions per run (foreground and background together).
    pub fn sessions(self) -> usize {
        match self {
            Workload::PaperWrite => 24,
            Workload::ChurnJellyfish => 8,
            Workload::FetchRealCodec => 40,
        }
    }

    /// Runs whose simulated outputs give the simulated metrics. Every
    /// invocation makes at least this many, whatever its time budget,
    /// so those metrics depend on the seed alone.
    pub fn batch(self) -> usize {
        match self {
            Workload::PaperWrite => 20,
            Workload::ChurnJellyfish => 12,
            Workload::FetchRealCodec => 30,
        }
    }

    /// Protocol configuration.
    pub fn pr(self) -> PrConfig {
        match self {
            Workload::FetchRealCodec => PrConfig::real_oracle(),
            _ => PrConfig::paper_default(),
        }
    }

    fn churn(self, seed: u64) -> ChurnScenario {
        ChurnScenario::ten_event(self.sessions(), self.object_bytes(), seed)
    }

    fn storage(self, seed: u64) -> StorageScenario {
        let mut sc = match self {
            Workload::PaperWrite => StorageScenario::fig1a(self.sessions(), 3, seed),
            _ => StorageScenario::fig1b(self.sessions(), 3, seed),
        };
        sc.object_bytes = self.object_bytes();
        sc
    }

    fn pattern(self) -> Pattern {
        match self {
            Workload::PaperWrite => Pattern::Write,
            _ => Pattern::Read,
        }
    }

    /// The logical sessions and, for the churn workload, the fault plan
    /// of the run seeded `seed` on `topo`.
    pub fn generate(self, topo: &Topology, seed: u64) -> (Vec<LogicalSession>, Option<FaultPlan>) {
        match self {
            Workload::ChurnJellyfish => {
                let sc = self.churn(seed);
                let sessions = sc.storage_sessions(topo);
                let plan = sc.plan(topo, &sessions);
                (sessions, Some(plan))
            }
            _ => (self.storage(seed).generate(topo), None),
        }
    }

    /// Simulator configuration, exactly as the library runners set it.
    fn sim_config(self, seed: u64, shards: usize) -> SimConfig {
        let mut cfg = match self {
            Workload::ChurnJellyfish => {
                let mut c = SimConfig::ndp(seed ^ 0xC0_17);
                c.reroute_delay_ns = REROUTE_DELAY_NS;
                c
            }
            _ => SimConfig::ndp(seed ^ 0xFAB),
        };
        cfg.parallelism = 1;
        cfg.shards = shards;
        cfg
    }
}

/// Transport-agent counters summed over a run's receiver records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreCounters {
    /// Distinct symbols the receivers collected.
    pub symbols: u64,
    /// Source symbols of the objects those receivers recovered.
    pub source_symbols: u64,
    /// Pull packets issued.
    pub pulls_sent: u64,
    /// Trimmed headers the receivers saw.
    pub trimmed_seen: u64,
    /// (session, dead sender) strandings.
    pub stranded: u64,
    /// Senders written off and re-targeted mid-session.
    pub retargets: u64,
    /// Symbols re-pulled from surviving replicas on re-target.
    pub retarget_symbols: u64,
}

/// What one seeded run did and produced.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Wall seconds from the start of the run to its first event.
    pub setup_s: f64,
    /// Wall seconds of the event loop alone.
    pub loop_s: f64,
    /// Wall seconds of the whole run, teardown included.
    pub run_s: f64,
    /// Sessions the run started.
    pub attempted: usize,
    /// Sessions that did not complete at every receiver.
    pub failed: usize,
    /// (session, receiver, start ns, finish ns) of every completed flow,
    /// sorted: the run's simulated fingerprint.
    pub fingerprint: Vec<(u32, u32, u64, u64)>,
    /// Fabric counters.
    pub stats: FabricStats,
    /// (goodput Gbit/s, completion ns) of every foreground flow.
    pub flows: Vec<(f64, u64)>,
    /// Transport-agent counters.
    pub core: CoreCounters,
}

/// One seeded run of `wl`, single-threaded unless `shards > 1`; `None`
/// when it panicked, which fails all of its sessions.
pub fn run_guarded(wl: Workload, seed: u64, shards: usize, tr: &mut Tracer) -> Option<RunOutcome> {
    let out = panic::catch_unwind(AssertUnwindSafe(|| run(wl, seed, shards, tr)));
    if out.is_err() {
        tr.close_all();
    }
    out.ok()
}

/// The run itself, with a span around every call into a layer.
fn run(wl: Workload, seed: u64, shards: usize, tr: &mut Tracer) -> RunOutcome {
    let t0 = Instant::now();
    let whole = tr.enter("bench.run");
    let topo = tr.span("topology.build", || wl.fabric().build());
    let (sessions, plan) = tr.span("workload.generate", || wl.generate(&topo, seed));
    let cfg = wl.sim_config(seed, shards);
    let mut sim: Simulator<_, PolyraptorAgent> = tr.span("sim.new", || Simulator::new(topo, cfg));
    tr.span("core.install", || {
        let hosts = sim.topology().hosts().to_vec();
        let mut seed_rng = Pcg32::new(seed ^ 0xA6E27);
        for &h in &hosts {
            let s = seed_rng.next_u64();
            sim.set_agent(h, PolyraptorAgent::new(h, wl.pr(), s));
        }
        let specs = build_rq_specs(&mut sim, &sessions, wl.pattern());
        for spec in &specs {
            install_rq(&mut sim, spec);
        }
        if let Some(plan) = &plan {
            sim.schedule_faults(plan);
            schedule_host_notifications(&mut sim, plan, &sessions);
        }
    });
    let setup_s = t0.elapsed().as_secs_f64();
    let t_loop = Instant::now();
    tr.span("sim.loop", || sim.run_to_completion());
    let loop_s = t_loop.elapsed().as_secs_f64();
    let mut out = tr.span("sim.stats", || collect(&sim, &sessions, wl.pattern()));
    drop(sim);
    tr.exit(whole);
    out.setup_s = setup_s;
    out.loop_s = loop_s;
    out.run_s = t0.elapsed().as_secs_f64();
    out
}

/// Control-plane host-failure and revival notifications, one
/// convergence window after each event, as `workload::run_churn_rq`
/// schedules them.
fn schedule_host_notifications(
    sim: &mut Simulator<polyraptor::PrPayload, PolyraptorAgent>,
    plan: &FaultPlan,
    sessions: &[LogicalSession],
) {
    for f in plan.host_failures(sim.topology()) {
        for ls in sessions.iter().filter(|ls| ls.replicas.contains(&f.host)) {
            let notify = f.at.max(ls.start) + REROUTE_DELAY_NS;
            if f.repaired_at.is_some_and(|up| up <= notify) {
                continue;
            }
            sim.schedule_timer(ls.client, notify, host_fail_token(f.host));
            if let Some(up) = f.repaired_at {
                let renotify = up.max(ls.start) + REROUTE_DELAY_NS;
                sim.schedule_timer(ls.client, renotify, host_up_token(f.host));
            }
        }
    }
}

/// Receiver records per session, checked against what each session
/// must produce: one record per replica for a write, one at the client
/// for a read or a background push.
fn collect(
    sim: &Simulator<polyraptor::PrPayload, PolyraptorAgent>,
    sessions: &[LogicalSession],
    pattern: Pattern,
) -> RunOutcome {
    let mut per_session: BTreeMap<u32, usize> = BTreeMap::new();
    let mut fingerprint = Vec::new();
    let mut flows = Vec::new();
    let mut core = CoreCounters::default();
    for (_, agent) in sim.agents() {
        core.stranded += agent.stranded_sessions;
        for rec in &agent.records {
            *per_session.entry(rec.session.0).or_default() += 1;
            fingerprint.push((
                rec.session.0,
                rec.node.0,
                rec.start.as_nanos(),
                rec.finish.as_nanos(),
            ));
            core.symbols += rec.symbols as u64;
            core.source_symbols += agent.config().k_for(rec.data_len) as u64;
            core.pulls_sent += rec.pulls_sent;
            core.trimmed_seen += rec.trimmed_seen;
            core.retargets += u64::from(rec.retargets);
            core.retarget_symbols += rec.retarget_symbols;
            if !rec.background {
                flows.push((rec.goodput_gbps(), rec.duration_ns()));
            }
        }
    }
    fingerprint.sort_unstable();
    let failed = sessions
        .iter()
        .filter(|ls| {
            let expected = match (ls.background, pattern) {
                (false, Pattern::Write) => ls.replicas.len(),
                _ => 1,
            };
            per_session.get(&ls.index).copied().unwrap_or(0) != expected
        })
        .count();
    RunOutcome {
        setup_s: 0.0,
        loop_s: 0.0,
        run_s: 0.0,
        attempted: sessions.len(),
        failed,
        fingerprint,
        stats: sim.stats(),
        flows,
        core,
    }
}
