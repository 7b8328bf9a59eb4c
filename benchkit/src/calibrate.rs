//! The host-speed reference: a fixed piece of work, independent of the
//! program under test, that the runner times between workload runs.
//!
//! The simulator's time goes to pointer-chasing over a working set of
//! megabytes, hashing, small allocations and branchy integer code, so the
//! reference does the same mix. Its inputs are fixed and it never changes
//! with the program, so the ratio of a workload run's time to the adjacent
//! reference runs' times cancels most of the shared host's speed drift and
//! keeps its meaning across commits.

use std::collections::HashMap;

/// Table size for the random read-modify-write pass (8 MiB of `u64`s).
const TABLE: usize = 1 << 20;
/// Keys inserted, looked up and half removed in the hash-map pass.
const MAP_KEYS: u64 = 150_000;
/// Elements in the sort pass.
const SORT_LEN: usize = 150_000;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Runs the reference work once and returns a checksum of it, so the
/// optimizer cannot drop any part.
pub fn reference_work() -> u64 {
    let mut rng = 0x2545_f491_4f6c_dd1d_u64;
    let mut sum = 0u64;

    // Dependent random accesses over a table larger than the L2 cache.
    let mut table: Vec<u64> = (0..TABLE as u64).collect();
    let mut i = 0usize;
    for _ in 0..(2 * TABLE) {
        let v = table[i];
        table[i] = v.wrapping_add(xorshift(&mut rng));
        i = (v ^ rng) as usize & (TABLE - 1);
        sum = sum.wrapping_add(v);
    }

    // Hashing, probing and small allocations.
    let mut map: HashMap<u64, Vec<u32>> = HashMap::new();
    for k in 0..MAP_KEYS {
        let key = xorshift(&mut rng) % (MAP_KEYS * 2);
        map.entry(key).or_default().push(k as u32);
    }
    for k in 0..MAP_KEYS * 2 {
        if let Some(v) = map.get(&k) {
            sum = sum.wrapping_add(v.len() as u64);
        }
        if k % 2 == 0 {
            map.remove(&k);
        }
    }
    sum = sum.wrapping_add(map.len() as u64);

    // Branchy comparisons.
    let mut xs: Vec<u64> = (0..SORT_LEN).map(|_| xorshift(&mut rng) >> 20).collect();
    xs.sort_unstable();
    sum.wrapping_add(xs[SORT_LEN / 2])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_work_is_deterministic() {
        assert_eq!(reference_work(), reference_work());
    }
}
