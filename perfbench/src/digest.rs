//! Bit-exact output digests.
//!
//! A run's welfare, server-load and worst-regret series are folded value
//! by value through `f64::to_bits` (FNV-1a over the little-endian bytes,
//! each series prefixed by its length). Two runs have equal digests only
//! if every value of every series is bit-identical, so a change that
//! alters any simulated outcome changes the digest.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// An FNV-1a fold over `u64` words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Self(OFFSET)
    }

    pub fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Folds a series: its length, then every value's bits in order.
    pub fn series(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits());
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

/// The digest of one run's outputs.
pub fn of_series(welfare: &[f64], server_load: &[f64], worst_regret: &[f64]) -> u64 {
    let mut d = Digest::new();
    d.series(welfare);
    d.series(server_load);
    d.series(worst_regret);
    d.value()
}

/// Parses the 16-digit hex form used in reference files and reports.
pub fn parse_hex(s: &str) -> Option<u64> {
    u64::from_str_radix(s, 16).ok()
}

/// The 16-digit hex form of a digest.
pub fn hex(d: u64) -> String {
    format!("{d:016x}")
}
