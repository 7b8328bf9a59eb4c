//! One seeded violation per determinism ban. Each line marked `seeded`
//! must be reported by `cargo clippy -- -D warnings`, and the line marked
//! `scoped` must not be: scoped threads are joined, so they stay allowed.

/// Seconds since the epoch, from the wall clock.
pub fn wall_clock_secs() -> u64 {
    let now = std::time::SystemTime::now(); // seeded: SystemTime::now
    now.duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

/// Host nanoseconds a closure takes.
pub fn host_nanos(f: impl FnOnce()) -> u128 {
    let start = std::time::Instant::now(); // seeded: Instant::now
    f();
    start.elapsed().as_nanos()
}

/// A wall-clock timestamp.
pub type Stamp = std::time::SystemTime; // seeded: SystemTime

/// A host-clock reading.
pub type Reading = std::time::Instant; // seeded: Instant

/// OS-seeded hashing state.
pub type Entropy = std::collections::hash_map::RandomState; // seeded: RandomState

/// A map whose iteration order changes from run to run.
pub type Table = std::collections::HashMap<u64, u64>; // seeded: HashMap

/// A set whose iteration order changes from run to run.
pub type Members = std::collections::HashSet<u64>; // seeded: HashSet

/// A statistic kept in single precision.
pub type Sample = f32; // seeded: f32

/// Parses a count, panicking on bad input.
pub fn parse_count(s: &str) -> u64 {
    s.parse().unwrap() // seeded: unwrap in library code
}

/// Starts a worker nothing joins.
pub fn detached() {
    let _worker = std::thread::spawn(|| ()); // seeded: thread::spawn
}

/// Starts a named worker nothing joins.
pub fn detached_named() {
    let _worker = std::thread::Builder::new().spawn(|| ()); // seeded: Builder::spawn
}

/// Sums on a scoped worker, which the scope always joins.
pub fn scoped_sum(xs: &[u64]) -> u64 {
    std::thread::scope(|s| {
        let worker = s.spawn(|| xs.iter().sum::<u64>()); // scoped: must stay unflagged
        worker.join().unwrap_or(0)
    })
}

/// Carries a suppression with nothing left to suppress.
#[expect(clippy::disallowed_types, reason = "the map that was here is gone")] // seeded: stale expect
pub fn stale() -> u64 {
    0
}

/// Suppresses without `expect` and without a reason.
#[allow(clippy::disallowed_types)] // seeded: bare allow
pub fn bare() -> u64 {
    0
}

/// Names a lint that does not exist.
#[expect(clippy::unwarp_used, reason = "the lint name is misspelled")] // seeded: misspelled lint
pub fn misspelled(v: Option<u64>) -> u64 {
    v.expect("present")
}
