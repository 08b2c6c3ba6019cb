//! The host-speed probe that calibrates end-to-end times.
//!
//! Shared hosts drift: on the 2-vCPU VM this benchmark was tuned on, a
//! fixed kernel ran anywhere between 1,900 and 3,300 iterations per second
//! over three minutes, and whole runs landed in slow phases. Timing a cell
//! alone cannot tell a slower program from a slower host. So every timed
//! cell is preceded by this probe — a fixed kernel owned by the benchmark,
//! made of the simulator's dominant access patterns: pointer chasing
//! through a 4 MiB random ring, then building and draining a `BTreeMap` and
//! a `BinaryHeap` — and the cell's time is reported as
//! `wall × NOMINAL_S / probe time`: seconds on a host that runs the probe
//! in [`NOMINAL_S`]. Over eight `request_plane` runs of one seed, raw
//! `events_per_s` spread by 10 % (quartile distance over median) and the
//! calibrated figure by 4.7 %.
//!
//! The probe calls no code of the simulator. It shares only the process's
//! global allocator (`ProfiledAlloc` over the system allocator), for a few
//! hundred allocations per probe. So a change to the simulator moves
//! calibrated times as it moves wall time, while a change in host speed
//! cancels out.

use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// Probe time of the reference host (the tuning VM), seconds.
pub const NOMINAL_S: f64 = 0.0035;

/// Ring slots: 4 MiB of `u32`, larger than a core's private caches.
const RING: usize = 1 << 20;
/// Ring hops per probe.
const HOPS: usize = 12_000;
/// Map and heap operations per probe.
const OPS: u64 = 12_000;
/// Entries the heap is drained down to.
const HEAP: usize = 4_096;

/// A probe with its ring built once; see [`Probe::time_s`].
pub struct Probe {
    ring: Vec<u32>,
    at: u32,
}

fn mix(x: u64) -> u64 {
    let x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Probe {
    /// Builds the ring: one random cycle through every slot (Sattolo's
    /// algorithm), so each hop is a dependent, cache-missing load.
    pub fn new() -> Probe {
        let mut ring: Vec<u32> = (0..RING as u32).collect();
        let mut x = 0x5eed;
        for i in (1..RING).rev() {
            x = mix(x + 1);
            ring.swap(i, (x % i as u64) as usize);
        }
        Probe { ring, at: 0 }
    }

    /// Runs the kernel once; returns its wall time, seconds.
    pub fn time_s(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..HOPS {
            self.at = self.ring[self.at as usize];
        }
        let mut map: BTreeMap<u64, u64> = BTreeMap::new();
        let mut heap = BinaryHeap::new();
        let mut x = u64::from(self.at);
        for i in 0..OPS {
            x = mix(x + i);
            *map.entry(x >> 52).or_insert(0) += i;
            heap.push(x >> 20);
            if heap.len() > HEAP {
                heap.pop();
            }
        }
        black_box((map, heap));
        t.elapsed().as_secs_f64()
    }

    /// `wall_s` in seconds of the reference host, given the probe time
    /// taken just before it.
    pub fn calibrate(wall_s: f64, probe_s: f64) -> f64 {
        wall_s * NOMINAL_S / probe_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ring_is_one_cycle_and_calibration_scales_by_host_speed() {
        let mut p = Probe::new();
        let (mut at, mut hops) = (p.ring[0], 1);
        while at != 0 {
            at = p.ring[at as usize];
            hops += 1;
        }
        assert_eq!(hops, RING, "Sattolo's shuffle yields a single cycle");
        assert!(p.time_s() > 0.0);
        assert_eq!(Probe::calibrate(2.0, NOMINAL_S), 2.0, "a nominal host changes nothing");
        assert_eq!(Probe::calibrate(2.0, NOMINAL_S * 2.0), 1.0, "a host half as fast");
    }
}
