//! Quickstart: the fountain code and a first simulated transfer.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Part 1 uses the `rq` codec directly (encode, lose packets, decode).
//! Part 2 runs a real Polyraptor transfer — with the actual decoder in
//! the loop — across a simulated two-host fabric.

use polyraptor_repro::netsim::{NodeKind, SimConfig, SimTime, Simulator, Topology};
use polyraptor_repro::polyraptor::{
    install_session, session_object, PolyraptorAgent, PrConfig, SessionId, SessionSpec,
};
use polyraptor_repro::rq::{Decoder, Encoder};

fn main() {
    // ---- Part 1: the code itself ---------------------------------------
    let object: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
    let encoder = Encoder::new(&object, 1440).expect("encode");
    let k = encoder.params().k;
    println!(
        "object: {} bytes → K = {k} source symbols of 1440 B",
        object.len()
    );

    // Simulate a lossy channel: drop 10% of source symbols, top up with
    // repair symbols (any repair replaces any loss — rateless).
    let mut decoder = Decoder::new(encoder.params());
    let mut received = 0usize;
    for esi in 0..k as u32 {
        if esi % 10 != 3 {
            decoder.push(esi, encoder.symbol(esi));
            received += 1;
        }
    }
    let mut esi = k as u32;
    while received < k + 2 {
        decoder.push(esi, encoder.symbol(esi));
        esi += 1;
        received += 1;
    }
    let decoded = decoder.try_decode().expect("k+2 symbols decode");
    assert_eq!(decoded, object);
    println!(
        "decoded after 10% loss with {} symbols (k+{})",
        received,
        received - k
    );

    // ---- Part 2: a transfer over the simulated fabric ------------------
    let mut topo = Topology::new();
    let a = topo.add_node(NodeKind::Host);
    let s = topo.add_node(NodeKind::Switch);
    let b = topo.add_node(NodeKind::Host);
    topo.connect(a, s, 1_000_000_000, 10_000); // 1 Gbps, 10 µs
    topo.connect(b, s, 1_000_000_000, 10_000);
    topo.compute_routes();

    // Real oracle: the receiver runs the actual decoder on actual bytes.
    let cfg = PrConfig::real_oracle();
    let mut sim = Simulator::new(topo, SimConfig::ndp(42));
    sim.set_agent(a, PolyraptorAgent::new(a, cfg, 1));
    sim.set_agent(b, PolyraptorAgent::new(b, cfg, 2));

    let bytes = 256 * 1024;
    let spec = SessionSpec::unicast(SessionId(7), bytes, a, b, SimTime::ZERO);
    install_session(&mut sim, &spec);
    sim.run_to_completion();

    let rec = &sim.agent(b).records[0];
    println!(
        "simulated transfer: {} KB in {} → {:.3} Gbps ({} symbols, {} pulls)",
        bytes / 1024,
        netsim::SimTime::from_nanos(rec.duration_ns()),
        rec.goodput_gbps(),
        rec.symbols,
        rec.pulls_sent,
    );
    // The object the receiver decoded is the canonical session object.
    let expected = session_object(SessionId(7), bytes);
    println!(
        "decoded object verified: {} bytes, first byte {:#04x}",
        expected.len(),
        expected[0]
    );
}
