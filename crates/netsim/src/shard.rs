//! The event-loop driver: conservative time-window simulation over one
//! or more shards. Every [`Simulator::run_until`] runs here.
//!
//! The fabric is partitioned into switch-group shards (hosts follow
//! their access switch; fat-tree pods fall out of seeded graph-growing
//! over the non-core switches; Jellyfish partitions the same way; core
//! switches are round-robined). Each shard owns its nodes' cells and a
//! private event heap and runs in epochs: each shard executes its
//! events up to `horizon = min(all shard clocks) + lookahead`, where
//! lookahead is the minimum propagation delay over cross-shard links —
//! an event at time `t` can influence another shard no earlier than
//! `t + lookahead`, so everything below the horizon is safe to run
//! without seeing the neighbours' future. Cross-shard packets travel
//! through per-epoch mailboxes; global events (faults and reroutes,
//! which mutate fabric-wide state) execute at barriers, as do telemetry
//! bucket closes and the replay of buffered telemetry notes.
//!
//! One shard — the default, and any fabric too small to split — is the
//! same driver run inline on the calling thread: no thread is spawned,
//! no link crosses a shard so the lookahead is unbounded, and one
//! window runs every event up to the next global event, bucket boundary
//! or deadline. One-shard and sharded runs differ only in threads,
//! barriers, mailboxes and lookahead.
//!
//! Determinism is inherited, not re-proved: every event carries the
//! execution-order-independent key `(time, author rank, author seq)`
//! (see [`crate::sim`]), so each shard's heap pops its events in
//! exactly the order one heap holding every event would, each node's
//! RNG stream and sequence counter advance identically, and the
//! mailbox insertion order is irrelevant. A sharded run is therefore
//! byte-identical to the one-shard run at any shard count —
//! [`crate::FabricStats::shard_invariant`] masks only the three
//! counters describing the runner itself.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Condvar, Mutex, PoisonError, RwLock};

use crate::packet::SimPayload;
use crate::sim::{
    close_buckets, dispatch_node, probe_ports, run_global, target_of, Agent, Control, Env, Ev,
    EvKey, FabricStats, Lane, LocalOp, NodeCell, NodeEvent, Note, SimConfig, Simulator,
    GLOBAL_RANK,
};
use crate::telemetry::{PortProbe, TelemetrySink};
use crate::time::SimTime;
use crate::topology::{NodeId, NodeKind, Topology};

/// A shard's private event heap (min-heap over the total event key).
type ShardHeap<P> = BinaryHeap<Reverse<Ev<NodeEvent<P>>>>;
/// `mailboxes[dst][src]`: cross-shard events posted during a window.
type Mailboxes<P> = Vec<Vec<Mutex<Vec<Ev<NodeEvent<P>>>>>>;

/// A partition of a topology into event-loop shards (see the module
/// docs). Built once per simulator; purely a wall-clock knob — the
/// plan never influences simulated results.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Number of shards (≥ 1; a plan that collapses to 1 means the
    /// topology is too small to shard, and the simulator keeps no plan).
    pub shards: usize,
    /// Shard of every node, indexed by node id. Hosts always share
    /// their access switch's shard, so host↔ToR traffic never crosses
    /// a shard boundary.
    pub shard_of: Vec<u32>,
    /// The conservative lookahead: the minimum propagation delay over
    /// links whose endpoints live in different shards (≥ 1 ns;
    /// `u64::MAX` when no link crosses a shard boundary). Within
    /// one epoch every shard may run `lookahead_ns` past the globally
    /// slowest shard without missing a cross-shard arrival.
    pub lookahead_ns: u64,
    /// Cell storage order: `order[slot]` is the node stored at `slot`,
    /// grouped by shard (ascending node id within each shard).
    pub(crate) order: Vec<u32>,
    /// Per-shard `(start, end)` slot ranges into `order`.
    pub(crate) ranges: Vec<(usize, usize)>,
}

impl ShardPlan {
    /// Partition `topo` into up to `shards` shards.
    ///
    /// Switches with a directly attached host anchor the partition
    /// (distance-0 in a multi-source BFS over the switch graph); the
    /// switches at maximum host-distance with no attached host are the
    /// core tier and are round-robined across shards. The rest — the
    /// domain — is split by seeded graph-growing: seeds spread evenly
    /// over the domain in id order (pod-contiguous construction order
    /// makes fat-tree seeds land one per pod), then each shard claims
    /// its smallest-id unclaimed neighbour per round until the domain
    /// is exhausted, keeping shards balanced and connected. Hosts
    /// follow their access switch. Fully deterministic: same topology
    /// and count ⇒ same plan.
    pub fn build(topo: &Topology, shards: usize) -> ShardPlan {
        let n = topo.node_count();
        let is_switch: Vec<bool> = (0..n)
            .map(|i| topo.kind(NodeId(i as u32)) == NodeKind::Switch)
            .collect();
        // Multi-source BFS over the switch graph from host-attached
        // switches.
        let mut host_dist = vec![u32::MAX; n];
        let mut queue = VecDeque::new();
        for i in 0..n {
            if !is_switch[i] {
                continue;
            }
            let direct = topo
                .node_ports(NodeId(i as u32))
                .iter()
                .any(|p| topo.kind(p.peer) == NodeKind::Host);
            if direct {
                host_dist[i] = 0;
                queue.push_back(i);
            }
        }
        while let Some(i) = queue.pop_front() {
            for p in topo.node_ports(NodeId(i as u32)) {
                let j = p.peer.0 as usize;
                if is_switch[j] && host_dist[j] == u32::MAX {
                    host_dist[j] = host_dist[i] + 1;
                    queue.push_back(j);
                }
            }
        }
        let max_dist = (0..n)
            .filter(|&i| is_switch[i] && host_dist[i] != u32::MAX)
            .map(|i| host_dist[i])
            .max()
            .unwrap_or(0);
        let mut in_domain = vec![false; n];
        let mut core = Vec::new();
        let mut domain = Vec::new();
        for i in 0..n {
            if !is_switch[i] {
                continue;
            }
            let is_core = max_dist > 0 && host_dist[i] == max_dist;
            if is_core {
                core.push(i);
            } else {
                in_domain[i] = true;
                domain.push(i);
            }
        }
        if domain.is_empty() {
            // Degenerate fabric (e.g. switches only): partition the
            // "core" directly instead.
            std::mem::swap(&mut domain, &mut core);
            for &i in &domain {
                in_domain[i] = true;
            }
        }
        let k = shards.min(domain.len()).max(1);
        let mut shard_of = vec![u32::MAX; n];
        if k > 1 {
            // Seeds spread evenly over the domain in id order.
            let mut claimed: Vec<Vec<usize>> = Vec::with_capacity(k);
            for s in 0..k {
                let seed = domain[s * domain.len() / k];
                shard_of[seed] = s as u32;
                claimed.push(vec![seed]);
            }
            let mut unassigned = domain.len() - k;
            while unassigned > 0 {
                let mut progress = false;
                for (s, mine) in claimed.iter_mut().enumerate() {
                    // Claim the smallest-id unclaimed domain neighbour
                    // of anything this shard already holds.
                    let mut best: Option<usize> = None;
                    for &c in mine.iter() {
                        for p in topo.node_ports(NodeId(c as u32)) {
                            let j = p.peer.0 as usize;
                            if in_domain[j] && shard_of[j] == u32::MAX {
                                best = Some(best.map_or(j, |b| b.min(j)));
                            }
                        }
                    }
                    if let Some(j) = best {
                        shard_of[j] = s as u32;
                        mine.push(j);
                        unassigned -= 1;
                        progress = true;
                        if unassigned == 0 {
                            break;
                        }
                    }
                }
                if !progress && unassigned > 0 {
                    // Disconnected remainder (only reachable through
                    // the core tier): hand the smallest leftover to
                    // the smallest shard.
                    let j = domain
                        .iter()
                        .copied()
                        .find(|&i| shard_of[i] == u32::MAX)
                        .expect("unassigned > 0");
                    let s = (0..k)
                        .min_by_key(|&s| (claimed[s].len(), s))
                        .expect("k > 0");
                    shard_of[j] = s as u32;
                    claimed[s].push(j);
                    unassigned -= 1;
                }
            }
            for (i, &c) in core.iter().enumerate() {
                shard_of[c] = (i % k) as u32;
            }
        } else {
            for &i in domain.iter().chain(core.iter()) {
                shard_of[i] = 0;
            }
        }
        // Hosts follow their access switch; anything still unassigned
        // (isolated nodes) lands in shard 0.
        for i in 0..n {
            if is_switch[i] {
                continue;
            }
            shard_of[i] = topo
                .node_ports(NodeId(i as u32))
                .first()
                .map(|p| shard_of[p.peer.0 as usize])
                .unwrap_or(0);
        }
        for v in shard_of.iter_mut() {
            if *v == u32::MAX {
                *v = 0;
            }
        }
        // Conservative lookahead: the fastest cross-shard wire. Every
        // cross-shard influence is a packet arrival over a physical
        // link (hosts are single-homed onto their own shard's ToR), so
        // propagation alone bounds it; ≥ 1 keeps the window open even
        // in pathological zero-delay configs. No cross-shard link, no
        // bound.
        let mut lookahead_ns = u64::MAX;
        for i in 0..n {
            for p in topo.node_ports(NodeId(i as u32)) {
                if shard_of[i] != shard_of[p.peer.0 as usize] {
                    lookahead_ns = lookahead_ns.min(p.prop_ns.max(1));
                }
            }
        }
        let mut order = Vec::with_capacity(n);
        let mut ranges = Vec::with_capacity(k);
        for s in 0..k as u32 {
            let start = order.len();
            for (i, &sh) in shard_of.iter().enumerate() {
                if sh == s {
                    order.push(i as u32);
                }
            }
            ranges.push((start, order.len()));
        }
        ShardPlan {
            shards: k,
            shard_of,
            lookahead_ns,
            order,
            ranges,
        }
    }
}

/// What each shard contributes to the synchronisation points: buffered
/// telemetry notes every epoch, plus (at bucket boundaries) a
/// cumulative stats snapshot and this shard's switch-port probes.
#[derive(Default)]
struct ShardBin {
    notes: Vec<Note>,
    probes: Vec<PortProbe>,
    stats: FabricStats,
}

/// The fabric-global state shard workers share behind one `RwLock`:
/// read by every worker during windows (forwarding consults the fault
/// mask and routes), written only by worker 0 at global-event and
/// bucket-boundary barriers.
struct SharedCtx<'a, T> {
    topo: &'a mut Topology,
    control: &'a mut Control,
    telemetry: &'a mut T,
    /// Per-node ops of the last executed global event (keyed
    /// `ops_key`), for each worker to apply to its own cells (in list
    /// order) after the barrier.
    ops: Vec<LocalOp>,
    ops_key: EvKey,
}

/// Everything the shards of one `run_until` share.
struct Driver<'a, P, T> {
    /// Shard of every node; `None` with one shard, where every event
    /// stays on the one heap.
    shard_of: Option<&'a [u32]>,
    cell_of: &'a [u32],
    config: &'a SimConfig,
    lookahead: u64,
    deadline_ns: u64,
    tele_on: bool,
    shared: RwLock<SharedCtx<'a, T>>,
    mailboxes: Mailboxes<P>,
    bins: Vec<Mutex<ShardBin>>,
    /// Published clocks: every shard's next event, the next global
    /// event, the next bucket boundary.
    next_pub: Vec<AtomicU64>,
    tg_pub: AtomicU64,
    tb_pub: AtomicU64,
    barrier: PoisonBarrier,
}

/// A reusable barrier that a panicking worker releases. Once poisoned,
/// every pending and later [`PoisonBarrier::wait`] unwinds instead of
/// blocking, so the other workers leave the scope and the run fails
/// with the original panic instead of hanging.
struct PoisonBarrier {
    n: usize,
    state: Mutex<BarrierState>,
    cv: Condvar,
}

/// Every update is one counter step or one flag write, and nothing
/// panics while the lock is held, so a poisoned guard is still valid.
#[derive(Default)]
struct BarrierState {
    arrived: usize,
    generation: u64,
    /// The first worker that panicked.
    poisoned_by: Option<usize>,
}

/// The unwind payload of a worker released from a poisoned barrier.
struct BarrierPoisoned;

impl PoisonBarrier {
    fn new(n: usize) -> Self {
        Self {
            n,
            state: Mutex::default(),
            cv: Condvar::new(),
        }
    }

    /// Block until all `n` workers arrive; unwind if the barrier is or
    /// becomes poisoned first.
    fn wait(&self) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if st.poisoned_by.is_none() {
            st.arrived += 1;
            if st.arrived == self.n {
                st.arrived = 0;
                st.generation += 1;
                self.cv.notify_all();
                return;
            }
            let generation = st.generation;
            st = self
                .cv
                .wait_while(st, |s| {
                    s.generation == generation && s.poisoned_by.is_none()
                })
                .unwrap_or_else(PoisonError::into_inner);
            if st.generation != generation {
                return;
            }
        }
        drop(st);
        std::panic::resume_unwind(Box::new(BarrierPoisoned));
    }

    /// Release every waiter for good; the first caller is recorded.
    fn poison(&self, worker: usize) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.poisoned_by.get_or_insert(worker);
        self.cv.notify_all();
    }

    fn poisoned_by(&self) -> Option<usize> {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .poisoned_by
    }
}

/// Poisons the barrier when its worker unwinds.
struct PoisonOnPanic<'b>(&'b PoisonBarrier, usize);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison(self.1);
        }
    }
}

/// One shard's execution lane: its contiguous slice of cells (starting
/// at slot `slot_base`), its heap, its lane scratch, and the time of
/// the last event it executed.
struct Worker<'c, P: SimPayload, A> {
    w: usize,
    cells: &'c mut [NodeCell<P, A>],
    slot_base: usize,
    heap: ShardHeap<P>,
    lane: Lane<P>,
    last_at: u64,
}

/// Drain every bin's buffered notes and replay them to the sink in
/// `(time, rank, seq)` order — the order the events that wrote them
/// execute in on one heap (one author's notes are already key-sorted
/// per bin).
fn replay_notes<T: TelemetrySink>(telemetry: &mut T, bins: &[Mutex<ShardBin>]) {
    let mut all = Vec::new();
    for bin in bins {
        all.append(&mut bin.lock().expect("bin lock").notes);
    }
    all.sort_by_key(|&(key, _)| key);
    for ((at, _, _), fe) in all {
        telemetry.record(at, fe);
    }
}

/// Run `sim` up to `deadline`: split the cells and node events into the
/// plan's shards (one shard without a plan), run the epoch loop on
/// every shard — inline with one shard, on scoped threads otherwise —
/// then merge heaps and lanes back. Returns the number of events
/// processed, node and global.
pub(crate) fn run<P, A, T>(sim: &mut Simulator<P, A, T>, deadline: SimTime) -> u64
where
    P: SimPayload + Send,
    A: Agent<P> + Send,
    T: TelemetrySink + Send + Sync,
{
    let events_before = sim.stats().events;
    let entry_ns = sim.now.as_nanos();
    let plan = sim.plan.as_ref();
    let k = plan.map_or(1, |p| p.shards);

    // Cells are stored shard-grouped: hand each worker its contiguous
    // slice. Worker 0 carries the simulator's lane, so its stats stay
    // cumulative across `run_until` slices.
    let mut workers = Vec::with_capacity(k);
    let mut rest = &mut sim.cells[..];
    for w in 0..k {
        let len = plan.map_or(rest.len(), |p| p.ranges[w].1 - p.ranges[w].0);
        let (cells, tail) = std::mem::take(&mut rest).split_at_mut(len);
        rest = tail;
        workers.push(Worker {
            w,
            slot_base: plan.map_or(0, |p| p.ranges[w].0),
            cells,
            heap: BinaryHeap::new(),
            lane: Lane::default(),
            last_at: entry_ns,
        });
    }
    workers[0].lane = std::mem::take(&mut sim.lane);
    workers[0].heap = std::mem::take(&mut sim.nevents);
    if let Some(p) = plan {
        for Reverse(ev) in std::mem::take(&mut workers[0].heap).into_vec() {
            let s = p.shard_of[target_of(&ev.kind, &sim.topo).0 as usize] as usize;
            workers[s].heap.push(Reverse(ev));
        }
    }

    let tele_on = sim.telemetry.enabled();
    let d = Driver {
        shard_of: plan.map(|p| &p.shard_of[..]),
        cell_of: &sim.cell_of,
        config: &sim.config,
        lookahead: plan.map_or(u64::MAX, |p| p.lookahead_ns),
        deadline_ns: deadline.as_nanos(),
        tele_on,
        shared: RwLock::new(SharedCtx {
            topo: &mut sim.topo,
            control: &mut sim.control,
            telemetry: &mut sim.telemetry,
            ops: Vec::new(),
            ops_key: (sim.now, GLOBAL_RANK, 0),
        }),
        mailboxes: (0..k)
            .map(|_| (0..k).map(|_| Mutex::default()).collect())
            .collect(),
        bins: (0..k).map(|_| Mutex::default()).collect(),
        next_pub: (0..k).map(|_| AtomicU64::new(u64::MAX)).collect(),
        tg_pub: AtomicU64::new(u64::MAX),
        tb_pub: AtomicU64::new(u64::MAX),
        barrier: PoisonBarrier::new(k),
    };
    let workers: Vec<Worker<P, A>> = if k == 1 {
        workers.into_iter().map(|wk| d.work(wk)).collect()
    } else {
        let mut results: Vec<_> = std::thread::scope(|scope| {
            let d = &d;
            let handles: Vec<_> = workers
                .into_iter()
                .map(|wk| {
                    scope.spawn(move || {
                        let _poison = PoisonOnPanic(&d.barrier, wk.w);
                        d.work(wk)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        // The workers released by the poisoned barrier unwound with
        // `BarrierPoisoned`; re-raise the panic that poisoned it.
        if let Some(w) = d.barrier.poisoned_by() {
            let payload = results.swap_remove(w).err();
            std::panic::resume_unwind(payload.expect("only a panicking worker poisons"));
        }
        results
            .into_iter()
            .map(|r| r.unwrap_or_else(|_| unreachable!("a panic poisons the barrier")))
            .collect()
    };

    // Reassemble: flush the notes buffered since the last
    // synchronisation point, merge heaps and lanes back into the
    // simulator, and advance the clock to the last executed event.
    let sh = d.shared.into_inner().expect("shared state poisoned");
    replay_notes(sh.telemetry, &d.bins);
    // `ops_key` is the last global event's key (the entry time if none
    // ran).
    let mut last_ns = sh.ops_key.0.as_nanos();
    for mut wk in workers {
        sim.nevents.append(&mut wk.heap);
        sim.lane.stats.absorb(&wk.lane.stats);
        last_ns = last_ns.max(wk.last_at);
    }
    sim.now = SimTime::from_nanos(last_ns);
    sim.retire_completions(deadline);
    sim.stats().events - events_before
}

impl<P, T> Driver<'_, P, T>
where
    P: SimPayload + Send,
    T: TelemetrySink + Send + Sync,
{
    /// One shard's epoch loop. Every worker computes the same branch
    /// from the clocks published at the epoch's first barrier.
    fn work<'c, A: Agent<P>>(&self, mut wk: Worker<'c, P, A>) -> Worker<'c, P, A> {
        loop {
            // Phase 1: hand buffered notes to the bin and publish this
            // shard's clock; worker 0 publishes the global and
            // bucket-boundary clocks.
            if !wk.lane.notes.is_empty() {
                let mut bin = self.bins[wk.w].lock().expect("bin lock");
                bin.notes.append(&mut wk.lane.notes);
            }
            let t_own = wk
                .heap
                .peek()
                .map_or(u64::MAX, |Reverse(e)| e.at.as_nanos());
            self.next_pub[wk.w].store(t_own, SeqCst);
            if wk.w == 0 {
                let g = self.shared.read().expect("shared read");
                let tg = g
                    .control
                    .gevents
                    .peek()
                    .map_or(u64::MAX, |Reverse(e)| e.at.as_nanos());
                self.tg_pub.store(tg, SeqCst);
                self.tb_pub
                    .store(g.telemetry.next_boundary().as_nanos(), SeqCst);
            }
            self.barrier.wait();
            // Phase 2: the earliest clock picks the epoch's kind.
            let t_node = self
                .next_pub
                .iter()
                .map(|a| a.load(SeqCst))
                .min()
                .expect("k >= 1");
            let tg = self.tg_pub.load(SeqCst);
            let tb = self.tb_pub.load(SeqCst);
            let t_next = t_node.min(tg);
            if t_next == u64::MAX || t_next > self.deadline_ns {
                return wk;
            }
            if wk.w == 0 && self.shard_of.is_some() {
                wk.lane.stats.shard_epochs += 1;
            }
            if tb <= t_next {
                self.close_epoch_buckets(&mut wk, t_next);
            } else if tg <= t_node {
                self.run_global_epoch(&mut wk);
            } else {
                // Everything a window event can emit lands either back
                // on this heap (own-node timers/dequeues, same-shard
                // arrivals, possibly still inside the window) or at
                // `t + cross-shard prop ≥ horizon` in a mailbox.
                let horizon = t_node
                    .saturating_add(self.lookahead)
                    .min(tg)
                    .min(tb)
                    .min(self.deadline_ns.saturating_add(1));
                self.run_window(&mut wk, horizon, t_own);
            }
        }
    }

    /// Bucket boundary at `t_next`: every worker contributes its probes
    /// and a cumulative stats snapshot, then worker 0 replays the notes
    /// and closes the buckets before anything at `t_next` executes.
    fn close_epoch_buckets<A>(&self, wk: &mut Worker<P, A>, t_next: u64) {
        {
            let g = self.shared.read().expect("shared read");
            let mut bin = self.bins[wk.w].lock().expect("bin lock");
            bin.stats = wk.lane.stats;
            probe_ports(g.topo, wk.cells, &mut bin.probes);
        }
        self.barrier.wait();
        if wk.w == 0 {
            let mut g = self.shared.write().expect("shared write");
            let sh = &mut *g;
            replay_notes(sh.telemetry, &self.bins);
            let mut probes = Vec::new();
            let mut total = sh.control.stats;
            for bin in &self.bins {
                let mut b = bin.lock().expect("bin lock");
                probes.append(&mut b.probes);
                total.absorb(&b.stats);
            }
            close_buckets(
                sh.telemetry,
                SimTime::from_nanos(t_next),
                &total,
                &mut probes,
            );
        }
    }

    /// Global event: worker 0 replays the notes written before it and
    /// executes its shared part; every worker then applies the per-node
    /// ops to its own cells.
    fn run_global_epoch<A>(&self, wk: &mut Worker<P, A>) {
        if wk.w == 0 {
            let mut g = self.shared.write().expect("shared write");
            let sh = &mut *g;
            replay_notes(sh.telemetry, &self.bins);
            sh.ops_key = run_global(sh.topo, sh.control, sh.telemetry, self.config, &mut sh.ops);
        }
        self.barrier.wait();
        let g = self.shared.read().expect("shared read");
        let base = wk.slot_base;
        let local = |node: NodeId| (self.cell_of[node.0 as usize] as usize).wrapping_sub(base);
        for op in &g.ops {
            // A node outside this worker's slice belongs to another
            // shard, which applies the op itself.
            match *op {
                LocalOp::Flush(node, p) => {
                    if let Some(cell) = wk.cells.get_mut(local(node)) {
                        wk.lane.stats.lost_to_fault += cell.queues[p as usize].flush() as u64;
                    }
                }
                LocalOp::Kick(node, p) => {
                    if let Some(cell) = wk.cells.get_mut(local(node)) {
                        cell.kick(p, g.ops_key, &mut wk.lane.out);
                    }
                }
                LocalOp::ClearMemos => wk.cells.iter_mut().for_each(|c| c.memo.clear()),
            }
        }
        // Kicks only emit this shard's own events.
        wk.heap.extend(wk.lane.out.drain(..).map(Reverse));
    }

    /// Window: run this shard's events strictly below `horizon`, then
    /// collect what the neighbours mailed. Pops first and pushes back
    /// the one event past the horizon: one heap access per event.
    fn run_window<A: Agent<P>>(&self, wk: &mut Worker<P, A>, horizon: u64, t_own: u64) {
        let mut did = 0u64;
        {
            let g = self.shared.read().expect("shared read");
            let env = Env {
                topo: &*g.topo,
                config: self.config,
                control: &*g.control,
                tele_on: self.tele_on,
            };
            while let Some(Reverse(ev)) = wk.heap.pop() {
                let at = ev.at.as_nanos();
                if at >= horizon {
                    wk.heap.push(Reverse(ev));
                    break;
                }
                wk.last_at = at;
                let target = target_of(&ev.kind, env.topo);
                let slot = self.cell_of[target.0 as usize] as usize - wk.slot_base;
                dispatch_node(&env, &mut wk.cells[slot], &mut wk.lane, ev.key(), ev.kind);
                while let Some(oe) = wk.lane.out.pop() {
                    let os = self.shard_of.map_or(wk.w, |s| {
                        s[target_of(&oe.kind, env.topo).0 as usize] as usize
                    });
                    if os == wk.w {
                        wk.heap.push(Reverse(oe));
                    } else {
                        wk.lane.stats.cross_shard_packets += 1;
                        self.mailboxes[os][wk.w].lock().expect("mailbox").push(oe);
                    }
                }
                did += 1;
            }
        }
        if did == 0 && t_own != u64::MAX {
            // Had work, but the horizon closed before any of it: the
            // conservative window held this shard back a full epoch.
            wk.lane.stats.horizon_stalls += 1;
        }
        wk.lane.stats.events += did;
        self.barrier.wait();
        for slot in &self.mailboxes[wk.w] {
            wk.heap
                .extend(slot.lock().expect("mailbox").drain(..).map(Reverse));
        }
    }
}
