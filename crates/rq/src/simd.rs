//! Vectorized GF(2^8) symbol kernels: split-nibble `pshufb` lookups.
//!
//! Multiplying every byte `x` of a symbol by a fixed scalar `c` is linear
//! over GF(2), so `c · x = c · (x & 0x0F) ^ c · (x & 0xF0)`. Each half
//! has 16 possible values, so the two products are one 16-entry table
//! lookup each, and AVX2 `vpshufb` does 32 such lookups in one
//! instruction. [`NIBBLE`] holds the two tables of every scalar.
//!
//! Each kernel handles the longest prefix that is a whole number of
//! vectors and returns its length; the caller finishes the tail with the
//! scalar loop. The kernels are only reached through [`addmul`] and
//! [`mul_slice`], which check the CPU feature before they run one, so the
//! safe functions here cannot execute an unsupported instruction.

use crate::gf256::{Kernel, MUL_TABLE};

/// `NIBBLE[c]` = `[c·0, c·1, …, c·15, c·0x00, c·0x10, …, c·0xF0]`: the
/// low-nibble and the high-nibble product tables of scalar `c`.
static NIBBLE: [[u8; 32]; 256] = build_nibble_tables();

const fn build_nibble_tables() -> [[u8; 32]; 256] {
    let mut t = [[0u8; 32]; 256];
    let mut c = 0;
    while c < 256 {
        let mut i = 0;
        while i < 16 {
            t[c][i] = MUL_TABLE[c][i];
            t[c][16 + i] = MUL_TABLE[c][i << 4];
            i += 1;
        }
        c += 1;
    }
    t
}

/// `dst[..n] ^= c · src[..n]` with `kernel`, where `n` is the prefix the
/// kernel covers (0 for [`Kernel::Scalar`] or a kernel this CPU lacks).
/// Returns `n`.
#[inline]
pub(crate) fn addmul(kernel: Kernel, dst: &mut [u8], src: &[u8], c: u8) -> usize {
    match kernel {
        Kernel::Scalar => 0,
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => {
            if !std::arch::is_x86_feature_detected!("avx2") {
                return 0;
            }
            // SAFETY: AVX2 support was detected on this CPU just above.
            unsafe { x86::addmul_avx2(dst, src, &NIBBLE[c as usize]) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => 0,
    }
}

/// `dst[..n] = c · dst[..n]` with `kernel`; returns the prefix length
/// `n` it covered, like [`addmul`].
#[inline]
pub(crate) fn mul_slice(kernel: Kernel, dst: &mut [u8], c: u8) -> usize {
    match kernel {
        Kernel::Scalar => 0,
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => {
            if !std::arch::is_x86_feature_detected!("avx2") {
                return 0;
            }
            // SAFETY: AVX2 support was detected on this CPU just above.
            unsafe { x86::mul_slice_avx2(dst, &NIBBLE[c as usize]) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => 0,
    }
}

/// The fastest kernel this CPU supports.
pub(crate) fn detect() -> Kernel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return Kernel::Avx2;
        }
    }
    Kernel::Scalar
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// The product of every byte of `x` with the scalar whose nibble
    /// tables are `lo` and `hi` (each broadcast to every 128-bit lane).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn mul256(x: __m256i, lo: __m256i, hi: __m256i) -> __m256i {
        let mask = _mm256_set1_epi8(0x0F);
        let l = _mm256_and_si256(x, mask);
        let h = _mm256_and_si256(_mm256_srli_epi64::<4>(x), mask);
        _mm256_xor_si256(_mm256_shuffle_epi8(lo, l), _mm256_shuffle_epi8(hi, h))
    }

    /// Both nibble tables of one scalar, each broadcast to both lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn tables256(t: &[u8; 32]) -> (__m256i, __m256i) {
        // SAFETY: `t` is 32 readable bytes; unaligned loads are allowed.
        unsafe {
            let lo = _mm_loadu_si128(t.as_ptr().cast());
            let hi = _mm_loadu_si128(t.as_ptr().add(16).cast());
            (
                _mm256_broadcastsi128_si256(lo),
                _mm256_broadcastsi128_si256(hi),
            )
        }
    }

    /// AVX2 multiply-accumulate over the 32-byte chunks of `dst`/`src`.
    #[target_feature(enable = "avx2")]
    pub(super) fn addmul_avx2(dst: &mut [u8], src: &[u8], t: &[u8; 32]) -> usize {
        let (lo, hi) = tables256(t);
        let n = dst.len().min(src.len()) & !31;
        for (d, s) in dst[..n].chunks_exact_mut(32).zip(src[..n].chunks_exact(32)) {
            // SAFETY: `d` and `s` are 32-byte chunks, so each unaligned
            // 256-bit load and store stays inside its slice.
            unsafe {
                let x = _mm256_loadu_si256(s.as_ptr().cast());
                let y = _mm256_loadu_si256(d.as_ptr().cast());
                let r = _mm256_xor_si256(y, mul256(x, lo, hi));
                _mm256_storeu_si256(d.as_mut_ptr().cast(), r);
            }
        }
        n
    }

    /// AVX2 in-place scaling over the 32-byte chunks of `dst`.
    #[target_feature(enable = "avx2")]
    pub(super) fn mul_slice_avx2(dst: &mut [u8], t: &[u8; 32]) -> usize {
        let (lo, hi) = tables256(t);
        let n = dst.len() & !31;
        for d in dst[..n].chunks_exact_mut(32) {
            // SAFETY: `d` is a 32-byte chunk, so the unaligned 256-bit
            // load and store stay inside it.
            unsafe {
                let x = _mm256_loadu_si256(d.as_ptr().cast());
                _mm256_storeu_si256(d.as_mut_ptr().cast(), mul256(x, lo, hi));
            }
        }
        n
    }
}
