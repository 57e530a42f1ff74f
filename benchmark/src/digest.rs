//! Output digests: a 64-bit FNV-1a hash over a canonical text rendering of
//! a workload's simulated results, and the digests recorded for the
//! default seed.

use std::fmt::Write as _;

/// The seed the recorded digests were taken with.
pub const DEFAULT_SEED: u64 = 0;

/// Digest of each workload's check pass at [`DEFAULT_SEED`], recorded from
/// this revision. A change that alters any simulated result alters these.
pub const RECORDED: [(&str, u64); 3] = [
    ("profile-fine", 0xde20_0181_c7a4_37a6),
    ("contention", 0x2e1c_852e_ee3a_5628),
    ("fleet", 0x502b_a023_5db9_4dc4),
];

/// The recorded default-seed digest of `workload`.
pub fn recorded(workload: &str) -> Option<u64> {
    RECORDED
        .iter()
        .find(|(name, _)| *name == workload)
        .map(|(_, d)| *d)
}

/// Accumulates canonical text and hashes it.
#[derive(Default)]
pub struct Digest {
    text: String,
}

impl Digest {
    /// Append one labelled line.
    pub fn line(&mut self, label: &str, value: impl std::fmt::Display) {
        let _ = writeln!(self.text, "{label}: {value}");
    }

    /// Append a block of text verbatim.
    pub fn block(&mut self, text: &str) {
        self.text.push_str(text);
        if !text.ends_with('\n') {
            self.text.push('\n');
        }
    }

    pub fn value(&self) -> u64 {
        fnv1a(self.text.as_bytes())
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Render a digest as fixed-width hex.
pub fn hex(d: u64) -> String {
    format!("{d:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let mut a = Digest::default();
        a.line("x", 1);
        a.line("y", 2);
        let mut b = Digest::default();
        b.line("y", 2);
        b.line("x", 1);
        assert_ne!(a.value(), b.value());
        let mut c = Digest::default();
        c.line("x", 1);
        c.block("y: 2");
        assert_eq!(a.value(), c.value(), "block adds the missing newline");
        assert_eq!(a.value(), fnv1a(b"x: 1\ny: 2\n"));
        assert_eq!(hex(0xab), "00000000000000ab");
    }

    #[test]
    fn every_workload_has_a_recorded_digest() {
        for w in crate::WORKLOADS {
            assert!(recorded(w).is_some(), "{w} has no recorded digest");
        }
    }
}
