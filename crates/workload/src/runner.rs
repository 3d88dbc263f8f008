//! The run pipeline: every experiment — storage, Incast, fault, churn,
//! hotspot — under every transport goes through one set-up path.
//!
//! ```text
//! fabric + policy ─► SimConfig ─► agents ─► workload install
//!     ─► FaultPlan + host notifications ─► run ─► RunReport
//! ```
//!
//! [`RunOptions`] carries the knobs, generic over the transport's
//! configuration ([`PrConfig`] or [`TcpConfig`]); the [`Transport`]
//! trait supplies the per-transport defaults, agents, session install
//! and result collection. A scenario keeps only what is its own: its
//! seed salt, its session placement, its fault plan and the shape of
//! its report.

use std::collections::BTreeMap;

use netsim::{
    Agent, AnomalyKind, FabricStats, FaultPlan, FlowSpanEvent, NodeId, Pcg32, QueueConfig,
    Recorder, RouteMode, RoutingPolicy, SimConfig, SimPayload, SimTime, Simulator, Topology,
};
use polyraptor::{
    host_fail_token, host_up_token, PolyraptorAgent, PrConfig, PrPayload, SessionId, SessionSpec,
};
use tcpsim::{conn_start_token, ConnId, ConnSpec, TcpAgent, TcpConfig, TcpPayload};

use crate::scenario::{IncastScenario, LogicalSession, Pattern, StorageScenario};
use crate::telemetry::{RunTelemetry, TelemetryOptions};

/// The simulated fabric: shape plus link parameters. The paper
/// evaluates on a fat-tree; leaf–spine and Jellyfish variants exist so
/// scenarios can probe transports on oversubscribed and low-diameter
/// random fabrics (where non-minimal routing matters).
#[derive(Debug, Clone, Copy)]
pub enum Fabric {
    /// k-ary fat-tree (paper: k = 10 → 250 hosts, 1 Gbps, 10 µs).
    FatTree {
        /// Fat-tree arity (even).
        k: usize,
        /// Link rate in bits per second.
        rate_bps: u64,
        /// Per-link propagation delay in nanoseconds.
        prop_ns: u64,
    },
    /// Two-tier leaf–spine with oversubscribed uplinks.
    LeafSpine {
        /// Leaf (top-of-rack) switches.
        leaves: usize,
        /// Spine switches (every leaf connects to every spine).
        spines: usize,
        /// Hosts per leaf.
        hosts_per_leaf: usize,
        /// Oversubscription ratio (1.0 = non-blocking, 4.0 = 4:1).
        oversub: f64,
        /// Host-link rate in bits per second.
        rate_bps: u64,
        /// Per-link propagation delay in nanoseconds.
        prop_ns: u64,
    },
    /// Jellyfish-style seeded random regular graph of switches.
    Jellyfish {
        /// Switch count.
        switches: usize,
        /// Inter-switch degree of the random regular graph.
        net_degree: usize,
        /// Hosts attached to each switch.
        hosts_per_switch: usize,
        /// Link rate in bits per second.
        rate_bps: u64,
        /// Per-link propagation delay in nanoseconds.
        prop_ns: u64,
        /// Wiring seed (same seed ⇒ identical graph).
        seed: u64,
    },
}

impl Fabric {
    /// The paper's 250-server fat-tree.
    pub fn paper() -> Self {
        Self::fat_tree(10)
    }

    /// A 16-host fat-tree for tests and quick runs.
    pub fn small() -> Self {
        Self::fat_tree(4)
    }

    /// A k-ary fat-tree at the paper's link parameters.
    pub fn fat_tree(k: usize) -> Self {
        Self::FatTree {
            k,
            rate_bps: 1_000_000_000,
            prop_ns: 10_000,
        }
    }

    /// A 16-host, 2:1-oversubscribed leaf–spine for tests and quick
    /// runs (heterogeneous link rates: uplinks at 1 Gbps x 4 / 4).
    pub fn small_leaf_spine() -> Self {
        Self::LeafSpine {
            leaves: 4,
            spines: 2,
            hosts_per_leaf: 4,
            oversub: 2.0,
            rate_bps: 1_000_000_000,
            prop_ns: 10_000,
        }
    }

    /// A 1024-host k=16 fat-tree — the large-fabric scale run the flat
    /// CSR route arenas make practical.
    pub fn large() -> Self {
        Self::fat_tree(16)
    }

    /// A 5000-host Jellyfish (250 switches x 20 hosts, network degree
    /// 12) — the random-graph counterpart of the large-fabric run.
    pub fn large_jellyfish() -> Self {
        Self::Jellyfish {
            switches: 250,
            net_degree: 12,
            hosts_per_switch: 20,
            rate_bps: 1_000_000_000,
            prop_ns: 10_000,
            seed: 1,
        }
    }

    /// A 16-host Jellyfish fabric for tests and quick runs.
    pub fn small_jellyfish() -> Self {
        Self::Jellyfish {
            switches: 8,
            net_degree: 3,
            hosts_per_switch: 2,
            rate_bps: 1_000_000_000,
            prop_ns: 10_000,
            seed: 1,
        }
    }

    /// Build the routed topology (single-layer minimal routes).
    pub fn build(&self) -> Topology {
        self.build_routed(RoutingPolicy::minimal(), 1)
    }

    /// Build the topology and compute its routes once, under `policy`
    /// with `parallelism` route-computation threads (see
    /// [`Topology::set_parallelism`]).
    pub(crate) fn build_routed(&self, policy: RoutingPolicy, parallelism: usize) -> Topology {
        let mut topo = match *self {
            Self::FatTree {
                k,
                rate_bps,
                prop_ns,
            } => Topology::fat_tree_graph(k, rate_bps, prop_ns),
            Self::LeafSpine {
                leaves,
                spines,
                hosts_per_leaf,
                oversub,
                rate_bps,
                prop_ns,
            } => Topology::leaf_spine_graph(
                leaves,
                spines,
                hosts_per_leaf,
                oversub,
                rate_bps,
                prop_ns,
            ),
            Self::Jellyfish {
                switches,
                net_degree,
                hosts_per_switch,
                rate_bps,
                prop_ns,
                seed,
            } => Topology::jellyfish_graph(
                switches,
                net_degree,
                hosts_per_switch,
                rate_bps,
                prop_ns,
                seed,
            ),
        };
        topo.set_policy(policy);
        topo.set_parallelism(parallelism);
        topo.compute_routes();
        topo
    }

    /// Number of hosts the fabric will have.
    pub fn host_count(&self) -> usize {
        match *self {
            Self::FatTree { k, .. } => k * k * k / 4,
            Self::LeafSpine {
                leaves,
                hosts_per_leaf,
                ..
            } => leaves * hosts_per_leaf,
            Self::Jellyfish {
                switches,
                hosts_per_switch,
                ..
            } => switches * hosts_per_switch,
        }
    }

    /// Human-readable shape summary for run banners.
    pub fn describe(&self) -> String {
        match *self {
            Self::FatTree { k, .. } => format!("k={k} fat-tree ({} hosts)", self.host_count()),
            Self::LeafSpine {
                leaves,
                spines,
                oversub,
                ..
            } => format!(
                "{leaves}x{spines} leaf-spine {oversub}:1 ({} hosts)",
                self.host_count()
            ),
            Self::Jellyfish {
                switches,
                net_degree,
                ..
            } => format!(
                "jellyfish {switches}sw/deg{net_degree} ({} hosts)",
                self.host_count()
            ),
        }
    }
}

/// One transport-flow result: the unit the paper's figures plot.
///
/// The paper ranks "transport sessions (flows)": in a replication write
/// with R replicas every sender→replica flow is its own point (R points
/// per op); a multi-source read is one flow at the client. The op-level
/// view (replication complete when the *last* replica holds the object)
/// is available via [`op_results`].
#[derive(Debug, Clone)]
pub struct TransferResult {
    /// Logical session index (shared by the flows of one op).
    pub session: u32,
    /// Bytes this flow delivered to its application endpoint.
    pub bytes: usize,
    /// Initiation time.
    pub start: SimTime,
    /// When this flow's endpoint finished.
    pub finish: SimTime,
    /// Background flag.
    pub background: bool,
}

impl TransferResult {
    /// Application goodput in Gbit/s.
    pub fn goodput_gbps(&self) -> f64 {
        (self.bytes as f64 * 8.0) / (self.finish - self.start) as f64
    }
}

/// Foreground goodputs from a result set (what the figures show).
pub fn foreground_goodputs(results: &[TransferResult]) -> Vec<f64> {
    results
        .iter()
        .filter(|r| !r.background)
        .map(|r| r.goodput_gbps())
        .collect()
}

/// Collapse per-flow results into op-level results: an op starts with
/// its session and finishes when the last of its flows finishes; its
/// byte count is one object copy. This is the stricter "all replicas
/// durable" metric used by the ablation benches.
pub fn op_results(flows: &[TransferResult], object_bytes: usize) -> Vec<TransferResult> {
    let mut ops: BTreeMap<u32, TransferResult> = BTreeMap::new();
    for f in flows {
        let e = ops.entry(f.session).or_insert_with(|| TransferResult {
            session: f.session,
            bytes: object_bytes,
            start: f.start,
            finish: f.finish,
            background: f.background,
        });
        e.finish = e.finish.max(f.finish);
        e.start = e.start.min(f.start);
    }
    ops.into_values().collect()
}

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

/// The knobs of one run, generic over the transport's configuration
/// ([`PrConfig`] for Polyraptor, [`TcpConfig`] for the TCP baseline).
/// Every runner honours every field.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions<C> {
    /// Transport protocol parameters.
    pub transport: C,
    /// Switch queue (default: the transport's — NDP trimming for
    /// Polyraptor, deep drop-tail for TCP).
    pub switch_queue: QueueConfig,
    /// Path selection (default: the transport's — per-packet spraying
    /// for Polyraptor, per-flow ECMP for TCP).
    pub route: RouteMode,
    /// Layered routing policy (default single-layer minimal/ECMP;
    /// `RoutingPolicy::layered(n, seed)` adds FatPaths-style
    /// path-diversity layers, useful on Jellyfish fabrics where minimal
    /// path diversity is structurally low).
    pub policy: RoutingPolicy,
    /// Telemetry recording (default off). When enabled the report
    /// carries a [`RunTelemetry`], and agents that keep flow spans
    /// record them.
    pub telemetry: TelemetryOptions,
    /// Route-computation worker threads (0 = available cores, 1 =
    /// serial, the default), for the initial build and every mid-run
    /// reroute. Reports are byte-identical per seed at every setting —
    /// route tables are computed by pure per-column work — so this is
    /// purely a wall-clock knob for large fabrics.
    pub parallelism: usize,
    /// Event-loop shards (0 = available cores, 1 = one shard run
    /// inline on the calling thread, the default). Like `parallelism`,
    /// byte-identical per seed at every setting — every shard count
    /// replays the same event order — so this too is purely a
    /// wall-clock knob.
    pub shards: usize,
}

/// Polyraptor run options.
pub type RqRunOptions = RunOptions<PrConfig>;

/// TCP-baseline run options.
pub type TcpRunOptions = RunOptions<TcpConfig>;

impl<C: Transport> Default for RunOptions<C> {
    fn default() -> Self {
        Self {
            transport: C::default(),
            switch_queue: C::SWITCH_QUEUE,
            route: C::ROUTE,
            policy: RoutingPolicy::minimal(),
            telemetry: TelemetryOptions::default(),
            parallelism: 1,
            shards: 1,
        }
    }
}

/// The run knobs the command-line shells accept: `--par N`
/// ([`RunOptions::parallelism`]), `--shards N` ([`RunOptions::shards`])
/// and `--telemetry`. Both counts default to 1 and take 0 for "one per
/// available core"; per-seed results are byte-identical at every
/// setting, so the counts change only wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunFlags {
    /// `--par N`: route-computation worker threads.
    pub parallelism: usize,
    /// `--shards N`: event-loop shards.
    pub shards: usize,
    /// `--telemetry`: record the runs the shell writes artefacts for.
    pub telemetry: bool,
}

impl RunFlags {
    /// Read the flags out of `args`, ignoring every other argument.
    ///
    /// # Panics
    /// Panics when `--par` or `--shards` lacks a numeric value.
    pub fn parse(args: &[String]) -> Self {
        let count = |flag: &str| {
            args.iter().position(|a| a == flag).map_or(1, |i| {
                args.get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("{flag} takes a count"))
            })
        };
        Self {
            parallelism: count("--par"),
            shards: count("--shards"),
            telemetry: args.iter().any(|a| a == "--telemetry"),
        }
    }

    /// Default options at the parsed thread and shard counts.
    pub fn options<C: Transport>(&self) -> RunOptions<C> {
        RunOptions {
            parallelism: self.parallelism,
            shards: self.shards,
            ..Default::default()
        }
    }

    /// [`RunFlags::options`], recording as well when `--telemetry` was
    /// given.
    pub fn recorded<C: Transport>(&self) -> RunOptions<C> {
        let mut opts = self.options();
        opts.telemetry.enabled = self.telemetry;
        opts
    }
}

// ---------------------------------------------------------------------------
// Transports
// ---------------------------------------------------------------------------

/// The simulator every run drives: telemetry is switchable at run time
/// (`None` costs one always-false boundary comparison per event).
pub type RunSim<C> =
    Simulator<<C as Transport>::Payload, <C as Transport>::Agent, Option<Recorder>>;

/// A transport the run pipeline can drive: its fabric defaults, its host
/// agent, how logical sessions become its sessions, and what it reports
/// back. Implemented by the transports' configuration types.
pub trait Transport: Copy + Default {
    /// Wire payload.
    type Payload: SimPayload + Send;
    /// Per-host agent.
    type Agent: Agent<Self::Payload> + Send;
    /// Default switch queue.
    const SWITCH_QUEUE: QueueConfig;
    /// Default path selection.
    const ROUTE: RouteMode;

    /// The agent for `host`. `seed` is the host's draw from the run's
    /// agent stream — every transport consumes one, so later draws from
    /// a shared stream line up across transports; `spans` turns on flow
    /// spans for a recorded run.
    fn agent(&self, host: NodeId, seed: u64, spans: bool) -> Self::Agent;

    /// Install `sessions` at their endpoints and schedule their starts.
    fn install(sim: &mut RunSim<Self>, sessions: &[LogicalSession], pattern: Pattern);

    /// Per-flow results, sorted by session.
    ///
    /// # Panics
    /// Panics if any session did not complete.
    fn collect(
        sim: &RunSim<Self>,
        sessions: &[LogicalSession],
        pattern: Pattern,
    ) -> Vec<TransferResult>;

    /// Tell `client` at `at` that `host` died (`up == false`) or
    /// revived. Transports without session re-target ignore it.
    fn notify(_sim: &mut RunSim<Self>, _client: NodeId, _at: SimTime, _host: NodeId, _up: bool) {}

    /// Sender retransmission timeouts summed over every host (0 for
    /// transports whose recovery is pull-paced, never timer-paced).
    fn timeouts(_sim: &RunSim<Self>) -> u64 {
        0
    }

    /// Session re-target counters summed over every host.
    fn retargets(_sim: &RunSim<Self>) -> Retargets {
        Retargets::default()
    }

    /// Flow spans from every agent, time-sorted.
    fn spans(_sim: &RunSim<Self>) -> Vec<FlowSpanEvent> {
        Vec::new()
    }
}

/// Polyraptor: multicast replication (Write), multi-source fetch (Read);
/// background sessions are unicast writes to the session's first
/// replica.
impl Transport for PrConfig {
    type Payload = PrPayload;
    type Agent = PolyraptorAgent;
    const SWITCH_QUEUE: QueueConfig = QueueConfig::NDP_DEFAULT;
    const ROUTE: RouteMode = RouteMode::Spray;

    fn agent(&self, host: NodeId, seed: u64, spans: bool) -> PolyraptorAgent {
        let mut cfg = *self;
        cfg.record_spans |= spans;
        PolyraptorAgent::new(host, cfg, seed)
    }

    fn install(sim: &mut RunSim<Self>, sessions: &[LogicalSession], pattern: Pattern) {
        for spec in build_rq_specs(sim, sessions, pattern) {
            install_rq(sim, &spec);
        }
    }

    fn collect(
        sim: &RunSim<Self>,
        sessions: &[LogicalSession],
        pattern: Pattern,
    ) -> Vec<TransferResult> {
        // One result per receiver-side record — the paper's "transport
        // session (flow)" unit: each replica of a write is its own flow.
        let mut flows: Vec<TransferResult> = Vec::new();
        let mut per_session: BTreeMap<u32, usize> = BTreeMap::new();
        for (_, agent) in sim.agents() {
            for rec in &agent.records {
                *per_session.entry(rec.session.0).or_insert(0) += 1;
                flows.push(TransferResult {
                    session: rec.session.0,
                    bytes: rec.data_len,
                    start: rec.start,
                    finish: rec.finish,
                    background: rec.background,
                });
            }
        }
        // Every session must have completed at every endpoint.
        for ls in sessions {
            let expected = expected_rq_records(ls, pattern);
            let got = per_session.get(&ls.index).copied().unwrap_or(0);
            assert_eq!(
                got, expected,
                "session {} incomplete ({got}/{expected})",
                ls.index
            );
        }
        flows.sort_by_key(|f| f.session);
        flows
    }

    fn notify(sim: &mut RunSim<Self>, client: NodeId, at: SimTime, host: NodeId, up: bool) {
        let token = if up {
            host_up_token(host)
        } else {
            host_fail_token(host)
        };
        sim.schedule_timer(client, at, token);
    }

    fn retargets(sim: &RunSim<Self>) -> Retargets {
        let mut r = Retargets::default();
        for (_, agent) in sim.agents() {
            r.stranded_sessions += agent.stranded_sessions;
            r.retargeted_sessions += agent.retargeted_sessions;
            r.unstranded_sessions += agent.unstranded_sessions;
            r.retarget_symbols += agent
                .records
                .iter()
                .map(|rec| rec.retarget_symbols)
                .sum::<u64>();
        }
        r
    }

    fn spans(sim: &RunSim<Self>) -> Vec<FlowSpanEvent> {
        // Stable sort: ties keep the agents' deterministic node order.
        let mut spans: Vec<FlowSpanEvent> = sim
            .agents()
            .flat_map(|(_, a)| a.spans.iter().copied())
            .collect();
        spans.sort_by_key(|s| s.at.as_nanos());
        spans
    }
}

/// The TCP baseline, emulating the paper's: Write ⇒ multi-unicast (the
/// client sends one full copy per replica); Read ⇒ partitioned fetch
/// (each replica returns `1/R` of the object, no coordination).
/// Background sessions are single connections.
impl Transport for TcpConfig {
    type Payload = TcpPayload;
    type Agent = TcpAgent;
    const SWITCH_QUEUE: QueueConfig = QueueConfig::DROPTAIL_DEFAULT;
    const ROUTE: RouteMode = RouteMode::EcmpFlow;

    fn agent(&self, host: NodeId, _seed: u64, _spans: bool) -> TcpAgent {
        TcpAgent::new(host, *self)
    }

    fn install(sim: &mut RunSim<Self>, sessions: &[LogicalSession], pattern: Pattern) {
        for c in build_tcp_conns(sessions, pattern) {
            sim.agent_mut(c.sender).install(c.clone());
            sim.agent_mut(c.receiver).install(c.clone());
            sim.schedule_timer(c.sender, c.start, conn_start_token(c.id));
        }
    }

    fn collect(
        sim: &RunSim<Self>,
        sessions: &[LogicalSession],
        _pattern: Pattern,
    ) -> Vec<TransferResult> {
        // One result per connection — each copy/stripe is its own flow,
        // mirroring the Polyraptor accounting.
        let mut flows: Vec<TransferResult> = Vec::new();
        let mut per_session: BTreeMap<u32, usize> = BTreeMap::new();
        for (_, agent) in sim.agents() {
            for rec in &agent.records {
                *per_session.entry(rec.session).or_insert(0) += 1;
                flows.push(TransferResult {
                    session: rec.session,
                    bytes: rec.bytes as usize,
                    start: rec.start,
                    finish: rec.finish,
                    background: rec.background,
                });
            }
        }
        for ls in sessions {
            assert!(
                per_session.get(&ls.index).copied().unwrap_or(0) > 0,
                "TCP session {} never completed",
                ls.index
            );
        }
        flows.sort_by_key(|f| f.session);
        flows
    }

    fn timeouts(sim: &RunSim<Self>) -> u64 {
        sim.agents().map(|(_, a)| a.timeouts()).sum()
    }
}

// ---------------------------------------------------------------------------
// The pipeline
// ---------------------------------------------------------------------------

/// What every run reports.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-flow transfer results, sorted by session.
    pub flows: Vec<TransferResult>,
    /// Fabric counters: deliveries, trims, `lost_to_fault`, `reroutes`…
    pub fabric: FabricStats,
    /// Sender retransmission timeouts (TCP; structurally 0 for
    /// Polyraptor, whose recovery is pull-paced, never timer-paced).
    pub timeouts: u64,
    /// Recorded telemetry, when the run options enabled it.
    pub telemetry: Option<RunTelemetry>,
}

/// Session re-target counters, summed over every agent (all zero for
/// the TCP baseline, which has no re-target).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Retargets {
    /// (session, dead sender) strandings observed across all clients.
    pub stranded_sessions: u64,
    /// Strandings re-targeted at a surviving replica.
    pub retargeted_sessions: u64,
    /// Strandings undone by a host-revival notification: the revived
    /// sender was re-admitted to a still-open session (no credit is
    /// minted across the strand/revive boundary).
    pub unstranded_sessions: u64,
    /// Symbols re-pulled from survivors on re-target, summed over all
    /// sessions (each bounded by its decode's remaining need).
    pub retarget_symbols: u64,
}

/// Salt of the agent-seed stream every scenario but the hotspot one
/// draws from.
const AGENT_SALT: u64 = 0xA6E27;

/// The agent-seed stream of a scenario seeded with `seed`.
pub(crate) fn agent_stream(seed: u64) -> Pcg32 {
    Pcg32::new(seed ^ AGENT_SALT)
}

/// One run between set-up and report: the routed fabric, the simulator
/// and its agents, waiting for the scenario's workload.
pub(crate) struct Run<C: Transport> {
    sim: RunSim<C>,
    reroute_delay_ns: u64,
}

impl<C: Transport> Run<C> {
    /// Build the fabric (policy and thread count set before its one
    /// route computation), the simulator over it, and one agent per host
    /// seeded in host order from `agents`. `seed` is the scenario's
    /// salted simulator seed; `reroute_delay_ns` the control plane's
    /// convergence window.
    pub(crate) fn new(
        fabric: &Fabric,
        opts: &RunOptions<C>,
        seed: u64,
        reroute_delay_ns: u64,
        agents: &mut Pcg32,
    ) -> Self {
        let topo = fabric.build_routed(opts.policy, opts.parallelism);
        // The ndp and classic profiles differ only in the fields the
        // options set, so this is either transport's fabric.
        let config = SimConfig {
            switch_queue: opts.switch_queue,
            route: opts.route,
            reroute_delay_ns,
            parallelism: opts.parallelism,
            shards: opts.shards,
            ..SimConfig::ndp(seed)
        };
        let mut sim = Simulator::with_telemetry(topo, config, opts.telemetry.recorder());
        for h in sim.topology().hosts().to_vec() {
            let agent = opts
                .transport
                .agent(h, agents.next_u64(), opts.telemetry.enabled);
            sim.set_agent(h, agent);
        }
        Self {
            sim,
            reroute_delay_ns,
        }
    }

    /// The routed fabric, for placing the workload.
    pub(crate) fn topology(&self) -> &Topology {
        self.sim.topology()
    }

    /// Install `sessions`, schedule `plan` and its host notifications,
    /// run to completion and collect the report.
    pub(crate) fn finish(
        self,
        sessions: &[LogicalSession],
        pattern: Pattern,
        plan: &FaultPlan,
    ) -> (RunReport, Retargets) {
        let Self {
            mut sim,
            reroute_delay_ns,
        } = self;
        C::install(&mut sim, sessions, pattern);
        sim.schedule_faults(plan);
        // Control-plane host-failure notifications: every client
        // fetching from a host the plan kills learns of the death one
        // convergence window after it strikes (or after its own session
        // starts, for fetches that begin mid-outage) — the same lag the
        // fabric's reroute pays. Failures already repaired by then were
        // transient; the keep-alive sweep alone covers those. The
        // matching revival notification follows one window after the
        // scripted repair: the client re-admits the revived replica to
        // its still-open sessions.
        for f in plan.host_failures(sim.topology()) {
            for ls in sessions.iter().filter(|ls| ls.replicas.contains(&f.host)) {
                let notify = f.at.max(ls.start) + reroute_delay_ns;
                if f.repaired_at.is_some_and(|up| up <= notify) {
                    continue;
                }
                C::notify(&mut sim, ls.client, notify, f.host, false);
                if let Some(up) = f.repaired_at {
                    let renotify = up.max(ls.start) + reroute_delay_ns;
                    C::notify(&mut sim, ls.client, renotify, f.host, true);
                }
            }
        }
        sim.run_to_completion();

        let timeouts = C::timeouts(&sim);
        if timeouts > 0 {
            // Timeouts mean work the fabric failed to carry — flag the
            // anomaly so the flight recorder freezes the lead-up events.
            sim.note_anomaly(AnomalyKind::Timeout);
        }
        let retargets = C::retargets(&sim);
        if retargets.stranded_sessions > 0 {
            // A stranding is survivable (that's the re-target claim) but
            // still anomalous fabric-level history worth a flight dump.
            sim.note_anomaly(AnomalyKind::StrandedSession);
        }
        let flows = C::collect(&sim, sessions, pattern);
        sim.finish_telemetry();
        let telemetry = sim.telemetry_mut().take().map(|recorder| RunTelemetry {
            recorder,
            spans: C::spans(&sim),
        });
        let report = RunReport {
            flows,
            fabric: sim.stats(),
            timeouts,
            telemetry,
        };
        (report, retargets)
    }
}

// ---------------------------------------------------------------------------
// Session translation
// ---------------------------------------------------------------------------

/// Trees registered per multicast session — symbols are sprayed across
/// them, the multicast analogue of NDP's per-packet multipath.
pub const MULTICAST_TREES: usize = 8;

/// Translate logical sessions into Polyraptor session specs (registering
/// multicast groups as needed).
pub fn build_rq_specs<A: netsim::Agent<polyraptor::PrPayload>, T: netsim::TelemetrySink>(
    sim: &mut Simulator<polyraptor::PrPayload, A, T>,
    sessions: &[LogicalSession],
    pattern: Pattern,
) -> Vec<SessionSpec> {
    sessions
        .iter()
        .map(|ls| {
            let id = SessionId(ls.index);
            let mut spec = if ls.background {
                // Background load: plain unicast push to the primary.
                SessionSpec::unicast(id, ls.bytes, ls.client, ls.replicas[0], ls.start)
            } else {
                match pattern {
                    Pattern::Write => {
                        if ls.replicas.len() == 1 {
                            SessionSpec::unicast(id, ls.bytes, ls.client, ls.replicas[0], ls.start)
                        } else {
                            // Several trees per group: symbols spray
                            // across them (multipath multicast).
                            let groups: Vec<_> = (0..MULTICAST_TREES)
                                .map(|_| sim.register_group(ls.client, &ls.replicas))
                                .collect();
                            SessionSpec::multicast(
                                id,
                                ls.bytes,
                                ls.client,
                                ls.replicas.clone(),
                                groups,
                                ls.start,
                            )
                        }
                    }
                    Pattern::Read => SessionSpec::multi_source(
                        id,
                        ls.bytes,
                        ls.replicas.clone(),
                        ls.client,
                        ls.start,
                    ),
                }
            };
            spec.background = ls.background;
            spec
        })
        .collect()
}

/// Install a Polyraptor session at every participant and schedule its
/// start timer everywhere: [`polyraptor::install_session`], which builds
/// a real-oracle session's one shared encoder.
pub fn install_rq<T: netsim::TelemetrySink>(
    sim: &mut Simulator<polyraptor::PrPayload, PolyraptorAgent, T>,
    spec: &SessionSpec,
) {
    polyraptor::install_session(sim, spec);
}

fn expected_rq_records(ls: &LogicalSession, pattern: Pattern) -> usize {
    if ls.background {
        return 1;
    }
    match pattern {
        // Write: one record per replica receiver.
        Pattern::Write => ls.replicas.len(),
        // Read: the client is the only receiver.
        Pattern::Read => 1,
    }
}

/// Translate logical sessions into TCP connection sets.
pub fn build_tcp_conns(sessions: &[LogicalSession], pattern: Pattern) -> Vec<ConnSpec> {
    let mut conns = Vec::new();
    let mut next_id = 0u32;
    for ls in sessions {
        let mut add = |sender: NodeId, receiver: NodeId, bytes: u64| {
            conns.push(ConnSpec {
                id: ConnId(next_id),
                session: ls.index,
                bytes,
                sender,
                receiver,
                start: ls.start,
                background: ls.background,
            });
            next_id += 1;
        };
        if ls.background {
            add(ls.client, ls.replicas[0], ls.bytes as u64);
            continue;
        }
        match pattern {
            Pattern::Write => {
                // Multi-unicast: one full copy per replica.
                for &r in &ls.replicas {
                    add(ls.client, r, ls.bytes as u64);
                }
            }
            Pattern::Read => {
                // Partitioned fetch: replica i returns its stripe.
                let shares = stripe(ls.bytes as u64, ls.replicas.len());
                for (&r, &sh) in ls.replicas.iter().zip(&shares) {
                    add(r, ls.client, sh);
                }
            }
        }
    }
    conns
}

/// Split `bytes` into `n` near-equal positive stripes.
pub fn stripe(bytes: u64, n: usize) -> Vec<u64> {
    assert!(n >= 1 && bytes >= n as u64, "stripe too small");
    let base = bytes / n as u64;
    let extra = (bytes % n as u64) as usize;
    (0..n).map(|i| base + u64::from(i < extra)).collect()
}

// ---------------------------------------------------------------------------
// Storage and Incast (Figures 1a–1c)
// ---------------------------------------------------------------------------

/// Run a storage scenario (Figures 1a/1b): `pattern` Write ⇒ replicated
/// writes, Read ⇒ replicated fetches, each the way the transport does
/// them (see the [`Transport`] impls).
pub fn run_storage<C: Transport>(
    scenario: &StorageScenario,
    fabric: &Fabric,
    opts: &RunOptions<C>,
) -> RunReport {
    let run = Run::new(
        fabric,
        opts,
        scenario.seed ^ 0xFAB,
        0,
        &mut agent_stream(scenario.seed),
    );
    let sessions = scenario.generate(run.topology());
    run.finish(&sessions, scenario.pattern, &FaultPlan::new()).0
}

/// Run one Incast exchange (Figure 1c): a single block fetched from
/// `senders` synchronized hosts — one multi-source session under
/// Polyraptor, one stripe per sender under TCP. The report's single flow
/// is the whole exchange (finish = last stripe), so
/// `flows[0].goodput_gbps()` is the figure's goodput.
pub fn run_incast<C: Transport>(
    scenario: &IncastScenario,
    fabric: &Fabric,
    opts: &RunOptions<C>,
) -> RunReport {
    let run = Run::new(
        fabric,
        opts,
        scenario.seed ^ 0x1C,
        0,
        &mut agent_stream(scenario.seed),
    );
    let (client, senders) = scenario.place(run.topology());
    let exchange = LogicalSession {
        index: 0,
        client,
        replicas: senders,
        bytes: scenario.block_bytes,
        start: SimTime::ZERO,
        background: false,
    };
    let (mut report, _) = run.finish(&[exchange], Pattern::Read, &FaultPlan::new());
    report.flows = op_results(&report.flows, scenario.block_bytes);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripe_sums_and_balances() {
        for (bytes, n) in [(100u64, 3usize), (70 << 10, 7), (256 << 10, 64)] {
            let s = stripe(bytes, n);
            assert_eq!(s.iter().sum::<u64>(), bytes);
            let max = *s.iter().max().unwrap();
            let min = *s.iter().min().unwrap();
            assert!(max - min <= 1);
        }
    }

    #[test]
    fn small_write_scenario_rq_completes() {
        let sc = StorageScenario {
            sessions: 30,
            object_bytes: 256 << 10,
            replicas: 3,
            lambda_per_host: crate::scenario::PAPER_LAMBDA_PER_HOST,
            normalize_load: true,
            shared_risk_placement: false,
            background_frac: 0.2,
            pattern: Pattern::Write,
            seed: 7,
        };
        let results = run_storage(&sc, &Fabric::small(), &RqRunOptions::default()).flows;
        // One flow per replica receiver + one per background session.
        assert!(
            results.len() >= 30,
            "per-flow accounting yields >= one point per op"
        );
        for r in &results {
            assert!(r.finish > r.start);
            let g = r.goodput_gbps();
            assert!(g > 0.01 && g <= 1.0, "goodput {g} out of range");
        }
        // Op-level view covers every logical session exactly once.
        let ops = op_results(&results, sc.object_bytes);
        assert_eq!(ops.len(), 30);
    }

    #[test]
    fn small_read_scenario_rq_completes() {
        let sc = StorageScenario {
            sessions: 30,
            object_bytes: 256 << 10,
            replicas: 3,
            lambda_per_host: crate::scenario::PAPER_LAMBDA_PER_HOST,
            normalize_load: true,
            shared_risk_placement: false,
            background_frac: 0.2,
            pattern: Pattern::Read,
            seed: 8,
        };
        let results = run_storage(&sc, &Fabric::small(), &RqRunOptions::default()).flows;
        assert_eq!(results.len(), 30);
        assert!(foreground_goodputs(&results).iter().all(|&g| g > 0.0));
    }

    #[test]
    fn small_write_scenario_tcp_completes() {
        let sc = StorageScenario {
            sessions: 30,
            object_bytes: 256 << 10,
            replicas: 3,
            lambda_per_host: crate::scenario::PAPER_LAMBDA_PER_HOST,
            normalize_load: true,
            shared_risk_placement: false,
            background_frac: 0.2,
            pattern: Pattern::Write,
            seed: 7,
        };
        let results = run_storage(&sc, &Fabric::small(), &TcpRunOptions::default()).flows;
        assert!(results.len() >= 30);
        // Multi-unicast replication: 3 copies share the 1 Gbps uplink, so
        // no flow of a foreground op can beat ~1/3 Gbps by much.
        for r in results.iter().filter(|r| !r.background) {
            assert!(
                r.goodput_gbps() < 0.45,
                "3-replica TCP can't exceed uplink/3"
            );
        }
        assert_eq!(op_results(&results, sc.object_bytes).len(), 30);
    }

    #[test]
    fn incast_runners_produce_goodput() {
        let sc = IncastScenario {
            senders: 8,
            block_bytes: 256 << 10,
            seed: 3,
        };
        let g_rq =
            run_incast(&sc, &Fabric::small(), &RqRunOptions::default()).flows[0].goodput_gbps();
        let g_tcp =
            run_incast(&sc, &Fabric::small(), &TcpRunOptions::default()).flows[0].goodput_gbps();
        assert!(g_rq > 0.0 && g_rq <= 1.0);
        assert!(g_tcp > 0.0 && g_tcp <= 1.0);
    }

    #[test]
    fn run_flags_parse_counts_and_telemetry() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let defaults = RunFlags::parse(&args("shell --smoke"));
        assert_eq!((defaults.parallelism, defaults.shards), (1, 1));
        assert!(!defaults.telemetry);
        let flags = RunFlags::parse(&args("shell --par 0 --shards 4 --telemetry"));
        let opts: RqRunOptions = flags.options();
        assert_eq!((opts.parallelism, opts.shards), (0, 4));
        assert!(!opts.telemetry.enabled, "options() never records");
        assert!(flags.recorded::<PrConfig>().telemetry.enabled);
    }

    #[test]
    fn layered_build_computes_routes_once() {
        let policy = RoutingPolicy::layered(3, 7);
        let topo = Fabric::small_jellyfish().build_routed(policy, 2);
        assert_eq!(topo.weight_builds(), 1, "one weight-table build");
        assert_eq!(topo.parallelism(), 2);
        // Same tables as routing minimal first and re-routing layered.
        let mut twice = Fabric::small_jellyfish().build();
        twice.set_policy(policy);
        twice.compute_routes();
        assert_eq!(topo.layer_count(), 3);
        for layer in 0..3 {
            for n in 0..topo.node_count() as u32 {
                for &dst in topo.hosts() {
                    let at = NodeId(n);
                    assert_eq!(
                        topo.try_next_ports_on(layer, at, dst),
                        twice.try_next_ports_on(layer, at, dst)
                    );
                }
            }
        }
    }
}
