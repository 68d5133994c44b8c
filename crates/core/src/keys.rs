//! Composite-key layouts shared by the index structures.
//!
//! All discrete indexes use the ordering of Table 2: `{value ASC,
//! probability DESC, tuple-id ASC}`. Probabilities stored in keys are
//! always *folded* confidences (`existence × alternative probability`,
//! e.g. Alice@Brown = 80% × 90% = 72%).

use upi_storage::codec::{dequantize_prob, quantize_prob, KeyBuf, KeyReader};

/// Byte length of a full `(value, prob, tid)` key.
pub const ENTRY_KEY_LEN: usize = 20;

/// A full UPI/PII/secondary key as a fixed-width array: what bulk builds
/// sort (no allocation per key). Same bytes as the [`KeyBuf`] composition
/// `u64(value).prob_desc(prob).u64(tid)`.
pub fn entry_key_array(value: u64, prob: f64, tid: u64) -> [u8; ENTRY_KEY_LEN] {
    let mut k = [0u8; ENTRY_KEY_LEN];
    k[..8].copy_from_slice(&value.to_be_bytes());
    k[8..12].copy_from_slice(&(u32::MAX - quantize_prob(prob)).to_be_bytes());
    k[12..].copy_from_slice(&tid.to_be_bytes());
    k
}

/// Encode a full UPI/PII/secondary key.
pub fn entry_key(value: u64, prob: f64, tid: u64) -> Vec<u8> {
    entry_key_array(value, prob, tid).to_vec()
}

/// Encode the prefix that positions a scan at the *highest-probability*
/// entry of `value`.
pub fn value_prefix(value: u64) -> Vec<u8> {
    let mut k = KeyBuf::new();
    k.u64(value);
    k.into_bytes()
}

/// Decode `(value, prob, tid)` from a key produced by [`entry_key`].
pub fn decode_entry_key(key: &[u8]) -> (u64, f64, u64) {
    let mut r = KeyReader::new(key);
    let value = r.u64();
    let prob = r.prob_desc();
    let tid = r.u64();
    (value, prob, tid)
}

/// Encode a pointer to a heap entry (used by cutoff and secondary indexes):
/// the `(value, prob)` half of the target's primary key. Together with the
/// tuple id (stored in the referring key) it identifies the heap entry.
pub fn pointer_bytes(value: u64, prob: f64) -> [u8; POINTER_LEN] {
    let mut k = [0u8; POINTER_LEN];
    k[..8].copy_from_slice(&value.to_be_bytes());
    k[8..].copy_from_slice(&(u32::MAX - quantize_prob(prob)).to_be_bytes());
    k
}

/// Decode a pointer produced by [`pointer_bytes`].
pub fn decode_pointer(data: &[u8]) -> (u64, f64) {
    let mut r = KeyReader::new(data);
    (r.u64(), r.prob_desc())
}

/// Byte length of one encoded pointer.
pub const POINTER_LEN: usize = 12;

/// The probability a key or pointer encoded from `p` stores — what
/// [`decode_entry_key`] and [`decode_pointer`] return for it. Statistics
/// count every observation by this one number, whether it arrives by a
/// bulk load (which reads it back off the sorted keys), an insert or a
/// delete, so a delete always finds the bin its row was counted in.
#[inline]
pub fn stored_prob(p: f64) -> f64 {
    dequantize_prob(quantize_prob(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_key_roundtrip() {
        let k = entry_key(42, 0.72, 7);
        let (v, p, t) = decode_entry_key(&k);
        assert_eq!(v, 42);
        assert!((p - 0.72).abs() < 1e-6);
        assert_eq!(t, 7);
    }

    #[test]
    fn arrays_match_the_key_codec() {
        for (v, p, t) in [(0, 0.0, 0), (42, 0.72, 7), (u64::MAX, 1.0, u64::MAX)] {
            let mut k = KeyBuf::new();
            k.u64(v).prob_desc(p).u64(t);
            assert_eq!(entry_key_array(v, p, t)[..], *k.as_bytes());
            let mut k = KeyBuf::new();
            k.u64(v).prob_desc(p);
            assert_eq!(pointer_bytes(v, p)[..], *k.as_bytes());
        }
    }

    #[test]
    fn stored_prob_is_what_keys_and_pointers_decode_to() {
        for p in [0.0, 0.05, 0.32, 0.48 * 0.8, 0.95, 0.6 * 0.8, 1.0 / 3.0, 1.0] {
            let want = stored_prob(p).to_bits();
            assert_eq!(decode_entry_key(&entry_key(1, p, 2)).1.to_bits(), want);
            assert_eq!(decode_pointer(&pointer_bytes(1, p)).1.to_bits(), want);
            assert_eq!(stored_prob(stored_prob(p)).to_bits(), want, "idempotent");
        }
    }

    #[test]
    fn value_prefix_positions_before_all_probs() {
        let prefix = value_prefix(42);
        let high = entry_key(42, 0.99, 0);
        let low = entry_key(42, 0.01, 0);
        assert!(prefix.as_slice() <= high.as_slice());
        assert!(high < low, "high probability sorts first");
        // And the next value sorts after everything under 42.
        let next = value_prefix(43);
        assert!(low < next);
    }

    #[test]
    fn pointer_roundtrip_and_len() {
        let p = pointer_bytes(9, 0.5);
        assert_eq!(p.len(), POINTER_LEN);
        let (v, pr) = decode_pointer(&p);
        assert_eq!(v, 9);
        assert!((pr - 0.5).abs() < 1e-6);
    }

    #[test]
    fn table2_ordering() {
        // Brown(72%) Alice < Brown(48%) Carol < MIT(95%) Bob < MIT(18%)
        // Alice < UCB(5%) Bob — with Brown=0, MIT=1, UCB=2.
        let rows = vec![
            entry_key(0, 0.72, 1),
            entry_key(0, 0.48, 3),
            entry_key(1, 0.95, 2),
            entry_key(1, 0.18, 1),
            entry_key(2, 0.05, 2),
        ];
        let mut sorted = rows.clone();
        sorted.sort();
        assert_eq!(rows, sorted);
    }
}
