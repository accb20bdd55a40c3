//! The host reference: a fixed task, independent of the library, timed
//! next to every measured interval so that its length can be stated at one
//! host speed.
//!
//! The benchmark host is shared. Within minutes, the same unit of work runs
//! up to 50% slower and back as other tenants load the core this process
//! runs on. A dependent multiply chain keeps its speed through this, so it
//! is not the clock rate; throughput-bound code slows down: a sort of a
//! small array and the library's simulations slow down together. The
//! reference sorts a fixed 64 KiB array (it stays in the core's own caches
//! and leaves the workload's data there), and none of its code is in the
//! library, so a change to the library does not move it.
//!
//! An interval of `t` seconds measured between reference times `r0` and
//! `r1` is reported as `t × NOMINAL_S / ((r0 + r1) / 2)`: its length on a
//! host where the reference takes `NOMINAL_S`.

use std::hint::black_box;
use std::time::Instant;

use crate::workloads::mix;

/// Reference time on the quiet benchmark host the bounds come from, so
/// that host-corrected seconds read close to wall seconds there.
pub const NOMINAL_S: f64 = 0.002;

/// Elements of the sorted array (64 KiB of `u32`).
const LEN: usize = 16_384;

/// Timed sorts per reference measurement.
const SORTS: usize = 8;

/// The reference task and its buffers.
pub struct Reference {
    source: Vec<u32>,
    buffer: Vec<u32>,
}

impl Reference {
    pub fn new() -> Reference {
        Reference {
            source: (0..LEN as u64).map(|i| mix(i) as u32).collect(),
            buffer: vec![0; LEN],
        }
    }

    fn sort_once(&mut self) {
        self.buffer.copy_from_slice(&self.source);
        black_box(&mut self.buffer).sort_unstable();
    }

    /// Seconds of `SORTS` sorts, after one untimed sort that brings the
    /// arrays back into the caches.
    pub fn time(&mut self) -> f64 {
        self.sort_once();
        let start = Instant::now();
        for _ in 0..SORTS {
            self.sort_once();
        }
        start.elapsed().as_secs_f64()
    }
}

/// `secs` at the nominal host speed, from the reference times measured
/// just before and just after the interval.
pub fn corrected(secs: f64, before: f64, after: f64) -> f64 {
    secs * NOMINAL_S / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrected_seconds_scale_with_the_reference() {
        assert_eq!(corrected(0.5, NOMINAL_S, NOMINAL_S), 0.5);
        // A host twice as slow during the interval halves its length.
        assert_eq!(corrected(0.5, 2.0 * NOMINAL_S, 2.0 * NOMINAL_S), 0.25);
        assert_eq!(corrected(0.5, NOMINAL_S, 3.0 * NOMINAL_S), 0.25);
    }

    #[test]
    fn the_reference_sorts_the_same_array_every_time() {
        let mut reference = Reference::new();
        assert!(reference.time() > 0.0);
        let sorted = reference.buffer.clone();
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        reference.time();
        assert_eq!(reference.buffer, sorted);
        assert_eq!(Reference::new().source, reference.source);
    }
}
