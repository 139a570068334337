//! Host-speed calibration.
//!
//! On a shared host a core's speed changes by a quarter or more within
//! seconds and between minutes, with no steal and no preemption: on a
//! 2-core host the same round of reads ran at 150 to 300 programs/s, and
//! a read's wall time equalled its thread's CPU time. The benchmark times
//! a fixed kernel on the session's core before every program and scales
//! the program's time by `REFERENCE_NS / kernel time`, so its gated
//! figures read as if the host ran at one reference speed.
//!
//! The kernel does what the engine spends its time on: it allocates small
//! values, inserts them into an ordered map, walks the map and frees it.
//! Measured on that host over two hours, with the whole process on one
//! core, a pure in-cache kernel did not see the slowdowns the engine saw,
//! and a cache-missing pointer chase saw them twice as large; programs
//! scaled by this kernel kept within 5-9% across the host's quiet and busy
//! periods, where their measured times moved by 25% (reads) and 38%
//! (commits).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the reference host, a 2-core Xeon VM. Scaled
/// figures read in that host's seconds.
pub const REFERENCE_NS: f64 = 300_000.0;

/// Run the kernel once and return its time in ns.
pub fn kernel_ns() -> u64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut map = BTreeMap::new();
    for i in 0..1500u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 4096, vec![i as u8; 16 + (x % 48) as usize]);
    }
    let acc = map
        .iter()
        .fold(0u64, |a, (k, v)| a.wrapping_add(k ^ v.len() as u64));
    black_box(acc);
    drop(map);
    t0.elapsed().as_nanos() as u64
}

/// `ns` of work done while the kernel took `kernel_ns`, in ns at the
/// reference speed.
pub fn scale(ns: u64, kernel_ns: u64) -> f64 {
    ns as f64 * REFERENCE_NS / kernel_ns.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_is_relative_to_the_reference() {
        assert_eq!(scale(1_000, REFERENCE_NS as u64), 1_000.0);
        assert_eq!(scale(1_000, 2 * REFERENCE_NS as u64), 500.0);
        assert!(kernel_ns() > 0);
    }
}
