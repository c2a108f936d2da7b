//! Content digests for output checks: 64-bit FNV-1a, printed as hex.

use mlpsim_cpu::SimResult;

/// FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of a report text.
pub fn text(s: &str) -> String {
    format!("{:016x}", fnv1a(s.as_bytes()))
}

/// Digest of every field of a result. `Debug` prints each `f64` in its
/// shortest exact form, so equal digests mean bit-equal results.
pub fn result(r: &SimResult) -> String {
    text(&format!("{r:?}"))
}
