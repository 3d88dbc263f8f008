//! Symbol-collection oracles: when has a receiver gathered enough?
//!
//! Two interchangeable models (DESIGN.md substitution S2):
//!
//! * [`Oracle::Counting`] counts *distinct* ESIs and declares success per
//!   the RaptorQ overhead-failure model: with `k + o` distinct symbols
//!   decoding fails with probability `10^-(2(o+1))` (≈1% at +0, 10⁻⁴ at
//!   +1, 10⁻⁶ at +2 — the figure the paper quotes). The required
//!   overhead is drawn once per session from a deterministic
//!   session-keyed hash, so runs are reproducible. A session whose
//!   source symbols all arrive completes via the systematic fast path
//!   regardless (no decode happens at all).
//! * [`Oracle::Real`] runs the actual [`rq`] decoder over real bytes and
//!   only reports completion when decoding genuinely succeeds. Tests use
//!   it to validate the counting model.
//!
//! Under the real oracle every participant of a session shares the one
//! encoder [`session_encoder`] builds: the senders emit its symbols and
//! the receiver takes its code parameters and source bytes from it.

use std::collections::HashSet;
use std::sync::Arc;

use rq::{Decoder, Encoder};

use crate::config::{OracleMode, PrConfig};
use crate::session::SessionSpec;
use crate::wire::SessionId;

/// Deterministic per-session draw of the extra symbols needed beyond
/// `k`, following `P(need > o) = 10^-(2(o+1))`.
pub fn required_overhead(session: SessionId, seed: u64) -> usize {
    let h = rq::rand::hash2(seed ^ 0x0BAC_1E55, u64::from(session.0));
    // Map to a uniform in [0,1).
    let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    let mut o = 0usize;
    let mut p = 1e-2f64;
    while u < p {
        o += 1;
        p *= 1e-2;
        if o >= 5 {
            break; // beyond 10⁻¹⁰: numerically irrelevant, cap the loop
        }
    }
    o
}

/// Receiver-side completion oracle.
pub enum Oracle {
    /// Distinct-symbol counting with the RaptorQ failure model.
    Counting {
        /// Source symbols in the object.
        k: usize,
        /// Extra symbols required for this session's (virtual) decode.
        required_overhead: usize,
        /// Distinct ESIs seen.
        seen: HashSet<u32>,
        /// Distinct *source* ESIs seen (systematic fast path).
        source_seen: usize,
    },
    /// Real decoding of real bytes.
    Real {
        /// The in-progress decoder.
        decoder: Decoder,
        /// The session's shared encoder; its source block is the
        /// expected plaintext, checked on every successful decode.
        encoder: Arc<Encoder>,
        /// Whether decode already succeeded.
        done: bool,
    },
}

impl Oracle {
    /// Counting oracle for an object of `k` symbols.
    pub fn counting(session: SessionId, k: usize, seed: u64) -> Self {
        Oracle::Counting {
            k,
            required_overhead: required_overhead(session, seed),
            seen: HashSet::new(),
            source_seen: 0,
        }
    }

    /// Real oracle over the session's shared encoder (see
    /// [`session_encoder`]): the decoder takes the encoder's code
    /// parameters, and a decode must reproduce its source block.
    pub fn real(encoder: Arc<Encoder>) -> Self {
        Oracle::Real {
            decoder: Decoder::new(encoder.params()),
            encoder,
            done: false,
        }
    }

    /// Record a received symbol. `bytes` is `None` under counting mode
    /// (the simulation does not materialize symbol bodies at scale).
    /// Returns `true` if the object just became recoverable.
    pub fn add(&mut self, esi: u32, bytes: Option<Vec<u8>>) -> bool {
        match self {
            Oracle::Counting {
                k,
                required_overhead,
                seen,
                source_seen,
            } => {
                if seen.insert(esi) && (esi as usize) < *k {
                    *source_seen += 1;
                }
                // Complete on the systematic fast path or at k+overhead
                // distinct symbols.
                *source_seen == *k || seen.len() >= *k + *required_overhead
            }
            Oracle::Real {
                decoder,
                encoder,
                done,
            } => {
                if *done {
                    return true;
                }
                let bytes = bytes.expect("real oracle requires symbol bytes");
                decoder.push(esi, bytes);
                if decoder.symbols_received() >= decoder.params().k {
                    if let Ok(data) = decoder.try_decode() {
                        assert!(
                            encoder.matches_source(&data),
                            "real oracle decoded wrong bytes"
                        );
                        *done = true;
                        return true;
                    }
                }
                false
            }
        }
    }

    /// Distinct symbols collected so far.
    pub fn symbols_received(&self) -> usize {
        match self {
            Oracle::Counting { seen, .. } => seen.len(),
            Oracle::Real { decoder, .. } => decoder.symbols_received(),
        }
    }

    /// Upper bound on the fresh symbols still needed to recover the
    /// object: the decode threshold minus the distinct symbols already
    /// collected. Batch sweep recovery caps its re-pull bursts with this
    /// so a recovery round never requests more symbols than the session
    /// could possibly use.
    pub fn symbols_needed(&self) -> u64 {
        match self {
            Oracle::Counting {
                k,
                required_overhead,
                seen,
                ..
            } => (*k + *required_overhead).saturating_sub(seen.len()) as u64,
            // The real decoder may need a little overhead beyond k, so
            // the bound stays at least 1 until decode succeeds.
            Oracle::Real { decoder, done, .. } => {
                if *done {
                    0
                } else {
                    (decoder
                        .params()
                        .k
                        .saturating_sub(decoder.symbols_received()) as u64)
                        .max(1)
                }
            }
        }
    }
}

/// The canonical (deterministic) object bytes for a session — what a
/// "real" sender would read from storage, generated from the session id.
pub fn session_object(session: SessionId, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    let mut state = u64::from(session.0) ^ 0xDA7A_B10C;
    while out.len() < len {
        state = rq::rand::mix64(state);
        out.extend_from_slice(&state.to_le_bytes());
    }
    out.truncate(len);
    out
}

/// The session's encoder under [`OracleMode::Real`] — `None` under the
/// counting oracle, which moves no symbol bytes. This is the one place a
/// session's encoder is built: it encodes [`session_object`] in
/// `cfg.code_mode`, once per session, and every sender and the receiver
/// share the result (see [`crate::install_session`]).
pub fn session_encoder(spec: &SessionSpec, cfg: &PrConfig) -> Option<Arc<Encoder>> {
    match cfg.oracle {
        OracleMode::Counting => None,
        OracleMode::Real => {
            let data = session_object(spec.id, spec.data_len);
            let enc = Encoder::with_mode(&data, cfg.symbol_size, cfg.code_mode)
                .expect("session object is non-empty");
            Some(Arc::new(enc))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_distribution_shape() {
        // ~99% of sessions need +0, ~1% need more; none need > 5.
        let n = 20_000u32;
        let mut extra = [0usize; 6];
        for s in 0..n {
            let o = required_overhead(SessionId(s), 7);
            extra[o.min(5)] += 1;
        }
        let frac0 = extra[0] as f64 / n as f64;
        assert!(frac0 > 0.985 && frac0 < 0.995, "P(+0) = {frac0}");
        assert!(extra[1] > 0, "some sessions should need +1");
        assert!(
            extra[3] + extra[4] + extra[5] == 0,
            "overhead beyond +2 at n=20k is absurd"
        );
    }

    #[test]
    fn overhead_deterministic() {
        assert_eq!(
            required_overhead(SessionId(12), 3),
            required_overhead(SessionId(12), 3)
        );
    }

    #[test]
    fn counting_systematic_fast_path() {
        // Even a session that drew +1 overhead completes when all k
        // source symbols arrive (no decode needed at all).
        let mut o = Oracle::Counting {
            k: 5,
            required_overhead: 1,
            seen: HashSet::new(),
            source_seen: 0,
        };
        for esi in 0..4 {
            assert!(!o.add(esi, None));
        }
        assert!(o.add(4, None), "all source symbols ⇒ complete");
    }

    #[test]
    fn counting_overhead_path() {
        let mut o = Oracle::Counting {
            k: 5,
            required_overhead: 1,
            seen: HashSet::new(),
            source_seen: 0,
        };
        // Lose source symbol 0; feed repairs instead.
        for esi in 1..5 {
            assert!(!o.add(esi, None));
        }
        assert!(!o.add(100, None), "k distinct but +1 required");
        assert!(o.add(101, None), "k+1 distinct ⇒ complete");
    }

    #[test]
    fn counting_ignores_duplicates() {
        let mut o = Oracle::Counting {
            k: 3,
            required_overhead: 0,
            seen: HashSet::new(),
            source_seen: 0,
        };
        assert!(!o.add(7, None));
        assert!(!o.add(7, None));
        assert_eq!(o.symbols_received(), 1);
    }

    #[test]
    fn real_oracle_end_to_end() {
        let session = SessionId(77);
        let len = 10 * 512;
        let data = session_object(session, len);
        let enc = Arc::new(Encoder::new(&data, 512).unwrap());
        let k = enc.params().k as u32;
        let mut o = Oracle::real(Arc::clone(&enc));
        // Drop one source symbol, push the rest plus two repairs.
        let mut done = false;
        for esi in 1..k {
            done = o.add(esi, Some(enc.symbol(esi)));
        }
        assert!(!done);
        done = o.add(k + 4, Some(enc.symbol(k + 4)));
        let done2 = o.add(k + 9, Some(enc.symbol(k + 9)));
        assert!(done || done2, "k+1 distinct symbols should decode");
    }

    #[test]
    fn session_object_deterministic_and_distinct() {
        let a = session_object(SessionId(1), 1000);
        let b = session_object(SessionId(1), 1000);
        let c = session_object(SessionId(2), 1000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 1000);
    }
}
