//! Measuring primitives: the hashing output sink, order statistics, and
//! the process's peak resident set.

use std::io::Write;
use std::time::Instant;

/// An output sink that keeps nothing: it counts the bytes, folds them into
/// a 64-bit hash eight at a time, and remembers when the first byte
/// arrived (time to first byte). The hash depends only on the byte
/// sequence, not on how the writer chunked it, so a document written
/// through a `BufWriter`, a socket or in one piece hashes the same.
#[derive(Debug, Clone)]
pub struct HashSink {
    h: u64,
    tail: [u8; 8],
    ntail: usize,
    bytes: u64,
    first: Option<Instant>,
}

/// What a [`HashSink`] saw: the identity of one output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// Bytes written.
    pub bytes: u64,
    /// Hash of the byte sequence.
    pub hash: u64,
}

impl Default for HashSink {
    fn default() -> Self {
        HashSink::new()
    }
}

impl HashSink {
    /// An empty sink.
    pub fn new() -> HashSink {
        HashSink {
            h: 0x51_1c_60_07,
            tail: [0; 8],
            ntail: 0,
            bytes: 0,
            first: None,
        }
    }

    fn mix(&mut self, word: u64) {
        self.h = (self.h ^ word)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29);
    }

    /// When the first byte arrived, if any did.
    pub fn first_byte(&self) -> Option<Instant> {
        self.first
    }

    /// Close the stream: fold in the unaligned tail and the length.
    pub fn digest(mut self) -> Digest {
        if self.ntail > 0 {
            self.tail[self.ntail..].fill(0);
            self.mix(u64::from_le_bytes(self.tail));
        }
        self.mix(self.bytes);
        Digest {
            bytes: self.bytes,
            hash: self.h,
        }
    }
}

impl Write for HashSink {
    fn write(&mut self, mut data: &[u8]) -> std::io::Result<usize> {
        let n = data.len();
        if n == 0 {
            return Ok(0);
        }
        if self.first.is_none() {
            self.first = Some(Instant::now());
        }
        self.bytes += n as u64;
        if self.ntail > 0 {
            let take = (8 - self.ntail).min(data.len());
            self.tail[self.ntail..self.ntail + take].copy_from_slice(&data[..take]);
            self.ntail += take;
            data = &data[take..];
            if self.ntail < 8 {
                return Ok(n);
            }
            self.mix(u64::from_le_bytes(self.tail));
            self.ntail = 0;
        }
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            self.mix(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
        self.ntail = rest.len();
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Digest of a byte slice (references built from buffered bytes).
pub fn digest_of(bytes: &[u8]) -> Digest {
    let mut s = HashSink::new();
    s.write_all(bytes).expect("HashSink never fails");
    s.digest()
}

/// The `q`-quantile of an ascending slice (nearest rank); 0 when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// Median of unsorted values; 0 when empty.
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(&values, 0.5)
}

/// Peak resident set of this process in MB (`VmHWM`), 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_chunking() {
        let doc: Vec<u8> = (0..1000u32).flat_map(|i| i.to_le_bytes()).collect();
        let whole = digest_of(&doc);
        for step in [1, 3, 7, 8, 13, 64] {
            let mut s = HashSink::new();
            for c in doc.chunks(step) {
                s.write_all(c).unwrap();
            }
            assert_eq!(s.digest(), whole, "chunk size {step}");
        }
        let mut other = doc.clone();
        other[517] ^= 1;
        assert_ne!(digest_of(&other), whole);
        assert_ne!(digest_of(&doc[..doc.len() - 1]), whole);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 51.0);
        assert_eq!(quantile(&v, 0.95), 95.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
    }
}
