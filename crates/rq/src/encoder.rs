//! Systematic encoder for a single source block.

use crate::gf256;
use crate::matrix::{hdpc_rows, ldpc_rows, lt_row, ConstraintRow, RowKind};
use crate::params::{BlockParams, CodeMode};
use crate::solver::{solve, SolveError};
use crate::tuple::lt_columns_with_floor;

/// Everything a decoder must know to decode one block. Communicated
/// out-of-band (in Polyraptor: at session establishment), like RFC 6330's
/// object transmission information.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeParams {
    /// Number of source symbols in the block.
    pub k: usize,
    /// Symbol size in bytes.
    pub symbol_size: usize,
    /// Length of the real data (the last symbol may carry zero padding).
    pub data_len: usize,
    /// Construction tweak: bumped (rarely) until the legacy systematic
    /// constraint matrix is invertible for this `k`. Always 0 in
    /// [`CodeMode::Systematic`] — the direct construction cannot fail.
    pub tweak: u8,
    /// Intermediate-block construction mode; encoder and decoder must
    /// agree, so it travels with the block parameters.
    pub mode: CodeMode,
}

/// Errors from encoder construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// The input was empty; a block must carry at least one byte.
    EmptyData,
    /// `k` would exceed [`crate::params::MAX_K`]; split the object into
    /// blocks (see [`crate::block`]).
    BlockTooLarge {
        /// The number of source symbols the data would need.
        k: usize,
    },
    /// No construction tweak in `0..=255` produced an invertible matrix.
    /// Practically unreachable (each attempt fails with probability
    /// ~2⁻⁹⁶); kept as an honest error path instead of a panic.
    ConstructionFailed,
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::EmptyData => write!(f, "cannot encode an empty block"),
            EncodeError::BlockTooLarge { k } => {
                write!(
                    f,
                    "block needs K={k} symbols, above MAX_K; use ObjectEncoder"
                )
            }
            EncodeError::ConstructionFailed => {
                write!(f, "no construction tweak yields an invertible matrix")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// Systematic rateless encoder for one source block.
///
/// Encoding symbols are addressed by *encoding symbol id* (ESI):
/// `esi < k` returns the source symbols themselves (the systematic part —
/// in Polyraptor these flow first so a lossless transfer pays zero decode
/// latency); `esi >= k` returns repair symbols, of which there are
/// effectively unlimited (`u32` space).
///
/// In the default [`CodeMode::Systematic`] mode construction is solve-free
/// (the intermediates are source plus directly-computed parity);
/// [`Encoder::legacy`] keeps the original solve-based construction for A/B
/// comparison. Either way the intermediate precompute happens once here
/// and is reused across every repair symbol.
///
/// ```
/// use rq::Encoder;
/// let data = vec![7u8; 4000];
/// let enc = Encoder::new(&data, 1440).unwrap();
/// assert_eq!(enc.params().k, 3);
/// let src0 = enc.symbol(0); // first source symbol
/// assert_eq!(&src0[..], &data[..1440]);
/// let repair = enc.symbol(12345); // any repair symbol, on demand
/// assert_eq!(repair.len(), 1440);
/// ```
#[derive(Debug, Clone)]
pub struct Encoder {
    params: BlockParams,
    code: CodeParams,
    source: Vec<Vec<u8>>,
    intermediates: Vec<Vec<u8>>,
}

impl Encoder {
    /// Build an encoder over `data` with the given symbol size, in the
    /// default [`CodeMode::Systematic`] mode (direct parity construction,
    /// no solve).
    pub fn new(data: &[u8], symbol_size: usize) -> Result<Self, EncodeError> {
        Self::with_mode(data, symbol_size, CodeMode::Systematic)
    }

    /// Build an encoder in the solve-based [`CodeMode::Legacy`] mode —
    /// kept for A/B comparison against the systematic fast path.
    pub fn legacy(data: &[u8], symbol_size: usize) -> Result<Self, EncodeError> {
        Self::with_mode(data, symbol_size, CodeMode::Legacy)
    }

    /// Build an encoder over `data` in an explicit mode.
    pub fn with_mode(data: &[u8], symbol_size: usize, mode: CodeMode) -> Result<Self, EncodeError> {
        assert!(symbol_size > 0, "symbol size must be positive");
        if data.is_empty() {
            return Err(EncodeError::EmptyData);
        }
        let k = data.len().div_ceil(symbol_size);
        if k > crate::params::MAX_K {
            return Err(EncodeError::BlockTooLarge { k });
        }
        // Slice the data into symbols, zero-padding the tail.
        let mut source: Vec<Vec<u8>> = Vec::with_capacity(k);
        for i in 0..k {
            let start = i * symbol_size;
            let end = (start + symbol_size).min(data.len());
            let mut sym = data[start..end].to_vec();
            sym.resize(symbol_size, 0);
            source.push(sym);
        }
        let params = BlockParams::new(k);

        match mode {
            CodeMode::Systematic => {
                // Direct construction: no solve, no tweak, cannot fail.
                let intermediates = Self::systematic_intermediates(&params, &source, symbol_size);
                Ok(Self {
                    params,
                    code: CodeParams {
                        k,
                        symbol_size,
                        data_len: data.len(),
                        tweak: 0,
                        mode,
                    },
                    source,
                    intermediates,
                })
            }
            CodeMode::Legacy => {
                // Find a construction tweak that makes the systematic
                // matrix invertible. Attempt 0 works essentially always.
                for tweak in 0u8..=255 {
                    match Self::derive_intermediates(&params, tweak, &source, symbol_size) {
                        Ok(intermediates) => {
                            let code = CodeParams {
                                k,
                                symbol_size,
                                data_len: data.len(),
                                tweak,
                                mode,
                            };
                            return Ok(Self {
                                params,
                                code,
                                source,
                                intermediates,
                            });
                        }
                        Err(SolveError::Singular) => continue,
                    }
                }
                Err(EncodeError::ConstructionFailed)
            }
        }
    }

    /// Direct systematic construction: the intermediate block is
    /// `[source | LDPC parity | HDPC parity]`, each parity symbol computed
    /// straight from its constraint row — a couple of streaming passes over
    /// the block instead of an `L×L` inactivation solve.
    ///
    /// This works because the precode rows are triangular over the parity
    /// columns: LDPC row `j` touches only source columns plus its identity
    /// column `K+j`, and HDPC row `h` touches columns `[0, K+S)` plus its
    /// identity column `K+S+h` — so each parity symbol is determined by
    /// columns constructed before it.
    fn systematic_intermediates(
        params: &BlockParams,
        source: &[Vec<u8>],
        symbol_size: usize,
    ) -> Vec<Vec<u8>> {
        let k = params.k;
        let ks = k + params.s;
        let mut c: Vec<Vec<u8>> = Vec::with_capacity(params.l);
        c.extend(source.iter().cloned());
        // LDPC parity: row j is `C[k+j] + XOR(source cols) = 0`.
        for row in ldpc_rows(params, symbol_size) {
            let RowKind::Binary { cols } = row.kind else {
                unreachable!("LDPC rows are binary")
            };
            debug_assert_eq!(
                cols.iter().filter(|&&col| col as usize >= k).count(),
                1,
                "LDPC row must touch exactly one parity column (its identity)"
            );
            let mut sym = vec![0u8; symbol_size];
            for col in cols {
                if (col as usize) < k {
                    gf256::xor_assign(&mut sym, &c[col as usize]);
                }
            }
            c.push(sym);
        }
        // HDPC parity: row h is `C[ks+h] + Σ coef_j · C[j] = 0` over
        // `j < K+S`, all of which are already constructed.
        for row in hdpc_rows(params, 0, symbol_size) {
            let RowKind::Dense { coefs } = row.kind else {
                unreachable!("HDPC rows are dense")
            };
            let mut sym = vec![0u8; symbol_size];
            for (j, &coef) in coefs.iter().enumerate().take(ks) {
                gf256::addmul(&mut sym, &c[j], coef);
            }
            c.push(sym);
        }
        debug_assert_eq!(c.len(), params.l);
        c
    }

    /// Solve the L×L systematic system: precode constraints plus the LT
    /// rows of ESIs `0..k` pinned to the source symbols.
    fn derive_intermediates(
        params: &BlockParams,
        tweak: u8,
        source: &[Vec<u8>],
        symbol_size: usize,
    ) -> Result<Vec<Vec<u8>>, SolveError> {
        let mut rows: Vec<ConstraintRow> = Vec::with_capacity(params.s + params.h + params.k);
        rows.extend(ldpc_rows(params, symbol_size));
        rows.extend(hdpc_rows(params, tweak, symbol_size));
        for (i, sym) in source.iter().enumerate() {
            rows.push(lt_row(params, tweak, i as u32, sym.clone()));
        }
        solve(params.l, rows, symbol_size)
    }

    /// The decoder-facing parameters of this block.
    pub fn params(&self) -> CodeParams {
        self.code
    }

    /// The internal block parameters (L, S, H, ...); exposed for tests and
    /// instrumentation.
    pub fn block_params(&self) -> BlockParams {
        self.params
    }

    /// Whether `data` is exactly the block this encoder was built over
    /// (what a successful decode must return).
    pub fn matches_source(&self, data: &[u8]) -> bool {
        data.len() == self.code.data_len
            && data
                .chunks(self.code.symbol_size)
                .zip(&self.source)
                .all(|(d, s)| d == &s[..d.len()])
    }

    /// Produce encoding symbol `esi`.
    ///
    /// Source symbols (`esi < k`) are returned from storage; repair
    /// symbols are LT-encoded from the intermediate block on demand
    /// (cost: mean-degree ≈ 4.6 symbol XORs, independent of `k`).
    pub fn symbol(&self, esi: u32) -> Vec<u8> {
        if (esi as usize) < self.code.k {
            self.source[esi as usize].clone()
        } else {
            self.lt_encode(esi)
        }
    }

    /// LT-encode any ESI from the intermediates.
    ///
    /// In [`CodeMode::Legacy`] this satisfies the solve-enforced property
    /// `lt_encode(i) == source[i]` for `i < k` (confirmed by tests). In
    /// [`CodeMode::Systematic`] it is only meaningful for repair ESIs —
    /// source symbols are emitted verbatim, not via the LT relation.
    pub fn lt_encode(&self, esi: u32) -> Vec<u8> {
        let min_d = match self.code.mode {
            CodeMode::Systematic => crate::params::sys_repair_min_degree(self.params.l),
            CodeMode::Legacy => 0,
        };
        let cols = lt_columns_with_floor(&self.params, self.code.tweak, esi, min_d);
        let mut out = vec![0u8; self.code.symbol_size];
        for c in cols {
            gf256::xor_assign(&mut out, &self.intermediates[c as usize]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 131 + 17) as u8).collect()
    }

    #[test]
    fn construction_succeeds_for_many_k() {
        // Legacy mode: the systematic solve uses exactly L rows, so a
        // duplicate LT tuple (birthday-bounded, ~10% per attempt) makes it
        // singular; the construction tweak retries deterministically — RFC
        // 6330 solves the same problem with its K' padding table. Assert
        // the retry count stays small rather than demanding zero.
        for k in [1usize, 2, 3, 5, 8, 13, 50, 101, 256, 500] {
            let d = data(k * 16);
            let enc = Encoder::legacy(&d, 16).unwrap();
            assert_eq!(enc.params().k, k, "k mismatch");
            assert!(
                enc.params().tweak <= 8,
                "k={k} needed {} construction retries — structural problem",
                enc.params().tweak
            );
            // Systematic mode never retries: the direct construction
            // cannot be singular.
            let sys = Encoder::new(&d, 16).unwrap();
            assert_eq!(sys.params().tweak, 0);
            assert_eq!(sys.params().mode, CodeMode::Systematic);
        }
    }

    #[test]
    fn systematic_intermediates_satisfy_precode() {
        // The direct construction must produce intermediates that satisfy
        // every LDPC and HDPC constraint row (zero RHS), i.e. exactly what
        // a decoder's reduced solve assumes.
        for k in [1usize, 2, 7, 40, 313] {
            let d = data(k * 24);
            let enc = Encoder::new(&d, 24).unwrap();
            let params = enc.block_params();
            let mut rows = ldpc_rows(&params, 24);
            rows.extend(hdpc_rows(&params, 0, 24));
            for (ri, row) in rows.iter().enumerate() {
                let mut acc = vec![0u8; 24];
                match &row.kind {
                    RowKind::Binary { cols } => {
                        for &c in cols {
                            gf256::xor_assign(&mut acc, &enc.intermediates[c as usize]);
                        }
                    }
                    RowKind::Dense { coefs } => {
                        for (j, &coef) in coefs.iter().enumerate() {
                            gf256::addmul(&mut acc, &enc.intermediates[j], coef);
                        }
                    }
                }
                assert!(
                    acc.iter().all(|&b| b == 0),
                    "k={k}: precode row {ri} not satisfied"
                );
            }
        }
    }

    #[test]
    fn systematic_source_symbols_verbatim() {
        let d = data(1000);
        let enc = Encoder::new(&d, 100).unwrap();
        for i in 0..enc.params().k {
            let sym = enc.symbol(i as u32);
            let start = i * 100;
            let end = (start + 100).min(d.len());
            assert_eq!(&sym[..end - start], &d[start..end]);
        }
    }

    #[test]
    fn nonzero_tweak_roundtrips() {
        // Force the legacy retry path by scanning for a K that needs
        // tweak > 0 (rare since the PI column landed, but the mechanism
        // must keep working): encoder and decoder must agree on the
        // retried construction end to end.
        let mut exercised = false;
        for k in 90..=600usize {
            let d = data(k * 16);
            let enc = Encoder::legacy(&d, 16).unwrap();
            if enc.params().tweak == 0 {
                continue;
            }
            exercised = true;
            let mut dec = crate::decoder::Decoder::new(enc.params());
            for esi in 3..k as u32 {
                dec.push(esi, enc.symbol(esi));
            }
            for esi in 2 * k as u32..2 * k as u32 + 5 {
                dec.push(esi, enc.symbol(esi));
            }
            assert_eq!(
                dec.try_decode().unwrap(),
                d,
                "tweak>0 roundtrip failed at k={k}"
            );
            break;
        }
        if !exercised {
            // No retry case in range: the mechanism is still covered by
            // construction_succeeds_for_many_k; nothing to assert.
            eprintln!("note: no k in 90..=600 required a construction retry");
        }
    }

    #[test]
    fn systematic_property() {
        // Legacy mode's defining property: the solve pins LT(esi<k) to
        // the source symbols bit-exactly.
        for k in [1usize, 4, 37, 200] {
            let d = data(k * 24);
            let enc = Encoder::legacy(&d, 24).unwrap();
            for i in 0..k as u32 {
                assert_eq!(
                    enc.lt_encode(i),
                    enc.symbol(i),
                    "systematic violation at esi={i}, k={k}"
                );
            }
        }
    }

    #[test]
    fn padding_on_partial_tail() {
        let d = data(100); // 100 bytes, symbol 64 → k=2, 28 bytes padding
        let enc = Encoder::new(&d, 64).unwrap();
        assert_eq!(enc.params().k, 2);
        assert_eq!(enc.params().data_len, 100);
        let s1 = enc.symbol(1);
        assert_eq!(&s1[..36], &d[64..]);
        assert!(s1[36..].iter().all(|&b| b == 0));
    }

    #[test]
    fn repair_symbols_deterministic() {
        let d = data(1000);
        let a = Encoder::new(&d, 100).unwrap();
        let b = Encoder::new(&d, 100).unwrap();
        for esi in [10u32, 11, 999, 123_456] {
            assert_eq!(a.symbol(esi), b.symbol(esi));
        }
    }

    #[test]
    fn matches_source_only_for_the_exact_block() {
        // 3.5 symbols: the padded tail must not count as data.
        let d = data(56);
        let enc = Encoder::new(&d, 16).unwrap();
        assert!(enc.matches_source(&d));
        assert!(!enc.matches_source(&d[..55]), "truncated");
        let mut padded = d.clone();
        padded.push(0);
        assert!(!enc.matches_source(&padded), "padding is not data");
        let mut flipped = d.clone();
        flipped[40] ^= 1;
        assert!(!enc.matches_source(&flipped), "one bit off");
    }

    #[test]
    fn empty_data_rejected() {
        assert_eq!(Encoder::new(&[], 16).unwrap_err(), EncodeError::EmptyData);
    }

    #[test]
    fn oversized_block_rejected() {
        let d = vec![0u8; (crate::params::MAX_K + 1) * 4];
        match Encoder::new(&d, 4) {
            Err(EncodeError::BlockTooLarge { k }) => assert!(k > crate::params::MAX_K),
            other => panic!("expected BlockTooLarge, got {other:?}"),
        }
    }
}
