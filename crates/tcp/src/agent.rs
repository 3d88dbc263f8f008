//! The TCP host agent: connection demux and timer management.

use std::collections::BTreeMap;

use netsim::{Agent, Ctx, NodeId, Packet};

use crate::receiver::TcpReceiver;
use crate::sender::{SenderPhase, TcpSender};
use crate::spec::{ConnRecord, ConnSpec, TcpConfig};
use crate::wire::{ConnId, TcpPayload};

const KIND_START: u64 = 1;
const KIND_RTO: u64 = 2;

/// Timer token for a connection's start — schedule at `spec.start` on
/// the **sender** host.
pub fn conn_start_token(conn: ConnId) -> u64 {
    KIND_START << 56 | u64::from(conn.0)
}

fn rto_token(conn: ConnId) -> u64 {
    KIND_RTO << 56 | u64::from(conn.0)
}

/// Per-host TCP agent carrying any number of connections.
pub struct TcpAgent {
    cfg: TcpConfig,
    node: NodeId,
    senders: BTreeMap<ConnId, TcpSender>,
    receivers: BTreeMap<ConnId, TcpReceiver>,
    /// Completed-connection records (receiver side).
    pub records: Vec<ConnRecord>,
}

impl TcpAgent {
    /// New agent for `node`.
    pub fn new(node: NodeId, cfg: TcpConfig) -> Self {
        Self {
            cfg,
            node,
            senders: BTreeMap::new(),
            receivers: BTreeMap::new(),
            records: Vec::new(),
        }
    }

    /// Install a connection this host participates in. Schedule
    /// [`conn_start_token`] at `spec.start` on the sender host.
    pub fn install(&mut self, spec: ConnSpec) {
        spec.validate();
        if spec.sender == self.node {
            self.senders.insert(spec.id, TcpSender::new(spec, self.cfg));
        } else if spec.receiver == self.node {
            self.receivers.insert(spec.id, TcpReceiver::new(spec));
        } else {
            panic!(
                "host {} is not an endpoint of conn {}",
                self.node.0, spec.id.0
            );
        }
    }

    /// Sender-side diagnostics for a connection.
    pub fn sender(&self, conn: ConnId) -> Option<&TcpSender> {
        self.senders.get(&conn)
    }

    /// Retransmission timeouts summed over this host's sender
    /// connections.
    pub fn timeouts(&self) -> u64 {
        self.senders.values().map(|s| s.timeouts).sum()
    }

    /// Number of sender connections still moving data.
    pub fn active_sends(&self) -> usize {
        self.senders
            .values()
            .filter(|s| s.phase != SenderPhase::Done)
            .count()
    }

    /// Re-arm the simulator-facing RTO timer if the sender has one
    /// pending. The token fires at the deadline; stale timers (deadline
    /// moved) are filtered in `on_timer`.
    fn sync_rto_timer(sender: &TcpSender, conn: ConnId, ctx: &mut Ctx<TcpPayload>) {
        if let Some(deadline) = sender.rto_deadline {
            ctx.timer_at(deadline, rto_token(conn));
        }
    }
}

impl Agent<TcpPayload> for TcpAgent {
    fn on_packet(&mut self, pkt: Packet<TcpPayload>, ctx: &mut Ctx<TcpPayload>) {
        match pkt.payload {
            TcpPayload::Syn { conn } => {
                if let Some(r) = self.receivers.get_mut(&conn) {
                    r.on_syn(ctx);
                }
            }
            TcpPayload::SynAck { conn } => {
                if let Some(s) = self.senders.get_mut(&conn) {
                    s.on_synack(ctx);
                    Self::sync_rto_timer(s, conn, ctx);
                }
            }
            TcpPayload::Data { conn, seq, len, .. } => {
                if let Some(r) = self.receivers.get_mut(&conn) {
                    if r.on_data(seq, len, ctx) {
                        self.records.push(r.record());
                    }
                }
            }
            TcpPayload::Ack { conn, ack } => {
                if let Some(s) = self.senders.get_mut(&conn) {
                    s.on_ack(ack, ctx);
                    Self::sync_rto_timer(s, conn, ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<TcpPayload>) {
        let conn = ConnId((token & 0xFFFF_FFFF) as u32);
        match token >> 56 {
            KIND_START => {
                let s = self
                    .senders
                    .get_mut(&conn)
                    .expect("start timer on host without sender state");
                s.open(ctx);
                Self::sync_rto_timer(s, conn, ctx);
            }
            KIND_RTO => {
                if let Some(s) = self.senders.get_mut(&conn) {
                    // Only act if this timer matches the live deadline;
                    // every ACK re-arms a fresh token and obsoletes
                    // earlier ones.
                    if s.rto_deadline == Some(ctx.now) {
                        s.on_rto(ctx);
                        Self::sync_rto_timer(s, conn, ctx);
                    }
                }
            }
            other => panic!("unknown TCP timer kind {other}"),
        }
    }
}

/// Convenience: install a connection at both endpoints and schedule its
/// start timer.
pub fn install_connection<S>(sim: &mut netsim::Simulator<TcpPayload, S>, spec: &ConnSpec)
where
    S: netsim::Agent<TcpPayload> + AsMut<TcpAgent>,
{
    let start = spec.start;
    let (snd, id) = (spec.sender, spec.id);
    sim.agent_mut(spec.sender).as_mut().install(spec.clone());
    sim.agent_mut(spec.receiver).as_mut().install(spec.clone());
    sim.schedule_timer(snd, start, conn_start_token(id));
}

impl AsMut<TcpAgent> for TcpAgent {
    fn as_mut(&mut self) -> &mut TcpAgent {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{NodeKind, SimConfig, SimTime, Simulator, Topology};

    fn linear_fabric() -> (Topology, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Host);
        let s = t.add_node(NodeKind::Switch);
        let b = t.add_node(NodeKind::Host);
        t.connect(a, s, 1_000_000_000, 10_000);
        t.connect(b, s, 1_000_000_000, 10_000);
        t.compute_routes();
        (t, a, b)
    }

    fn spec(bytes: u64, a: NodeId, b: NodeId) -> ConnSpec {
        ConnSpec {
            id: ConnId(1),
            session: 0,
            bytes,
            sender: a,
            receiver: b,
            start: SimTime::ZERO,
            background: false,
        }
    }

    #[test]
    fn clean_transfer_completes() {
        let (t, a, b) = linear_fabric();
        let mut sim = Simulator::new(t, SimConfig::classic(1));
        sim.set_agent(a, TcpAgent::new(a, TcpConfig::paper_default()));
        sim.set_agent(b, TcpAgent::new(b, TcpConfig::paper_default()));
        let sp = spec(1_000_000, a, b);
        install_connection(&mut sim, &sp);
        sim.run_to_completion();
        let rec = &sim.agent(b).records;
        assert_eq!(rec.len(), 1);
        assert_eq!(rec[0].bytes, 1_000_000);
        // 1 MB at 1 Gbps ≥ 8 ms; with handshake + slow start, below 1 Gbps.
        let g = rec[0].goodput_gbps();
        assert!(g > 0.3 && g < 1.0, "goodput {g}");
        assert_eq!(sim.agent(a).active_sends(), 0);
    }

    #[test]
    fn short_flow_completes_quickly() {
        let (t, a, b) = linear_fabric();
        let mut sim = Simulator::new(t, SimConfig::classic(1));
        sim.set_agent(a, TcpAgent::new(a, TcpConfig::paper_default()));
        sim.set_agent(b, TcpAgent::new(b, TcpConfig::paper_default()));
        let sp = spec(5000, a, b);
        install_connection(&mut sim, &sp);
        sim.run_to_completion();
        let rec = &sim.agent(b).records;
        assert_eq!(rec.len(), 1);
        // 4 segments fit in IW10: handshake RTT + one data RTT ≈ 150 µs.
        assert!(
            rec[0].finish < SimTime::from_micros(300),
            "took {}",
            rec[0].finish
        );
    }

    #[test]
    fn loss_recovered_by_fast_retransmit() {
        // Two senders share one receiver port (2:1 overload): the
        // 10-packet drop-tail queue must overflow, and both transfers
        // must still complete via dup-ACK/RTO recovery.
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Host);
        let c = t.add_node(NodeKind::Host);
        let s = t.add_node(NodeKind::Switch);
        let b = t.add_node(NodeKind::Host);
        t.connect(a, s, 1_000_000_000, 10_000);
        t.connect(c, s, 1_000_000_000, 10_000);
        t.connect(b, s, 1_000_000_000, 10_000);
        t.compute_routes();
        let mut cfg = SimConfig::classic(1);
        cfg.switch_queue = netsim::QueueConfig::DropTail { cap_pkts: 10 };
        let mut sim = Simulator::new(t, cfg);
        for h in [a, b, c] {
            sim.set_agent(h, TcpAgent::new(h, TcpConfig::paper_default()));
        }
        let mut sp1 = spec(3_000_000, a, b);
        let mut sp2 = spec(3_000_000, c, b);
        sp1.id = ConnId(1);
        sp2.id = ConnId(2);
        install_connection(&mut sim, &sp1);
        install_connection(&mut sim, &sp2);
        sim.run_to_completion();
        let recs = &sim.agent(b).records;
        assert_eq!(recs.len(), 2, "both transfers must complete despite drops");
        assert!(sim.stats().dropped > 0, "2:1 overload must drop");
        let rec1 = sim.agent(a).sender(ConnId(1)).unwrap().fast_retransmits
            + sim.agent(a).sender(ConnId(1)).unwrap().timeouts;
        let rec2 = sim.agent(c).sender(ConnId(2)).unwrap().fast_retransmits
            + sim.agent(c).sender(ConnId(2)).unwrap().timeouts;
        assert!(rec1 + rec2 > 0, "expected loss recovery to trigger");
    }

    #[test]
    fn deep_queue_no_loss_full_throughput() {
        let (t, a, b) = linear_fabric();
        let mut sim = Simulator::new(t, SimConfig::classic(1));
        sim.set_agent(a, TcpAgent::new(a, TcpConfig::paper_default()));
        sim.set_agent(b, TcpAgent::new(b, TcpConfig::paper_default()));
        let sp = spec(10_000_000, a, b);
        install_connection(&mut sim, &sp);
        sim.run_to_completion();
        let snd = sim.agent(a).sender(ConnId(1)).unwrap();
        assert_eq!(snd.timeouts, 0);
        assert_eq!(snd.fast_retransmits, 0);
        let g = sim.agent(b).records[0].goodput_gbps();
        assert!(g > 0.85, "long flow should approach line rate, got {g}");
    }
}
