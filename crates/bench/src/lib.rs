//! The study configurations shared by the `repro` report binary and
//! the BenchKit benchmark (`benchkit/`).
//!
//! The crate also hosts the workspace examples and the cross-crate
//! integration tests.

use sdfs_core::StudyConfig;

/// A study configuration scaled down enough for benchmark iterations and
/// CI runs while still exercising every code path: a smaller cluster,
/// lighter activity, one normal and one heavy trace, two counter days.
pub fn bench_config() -> StudyConfig {
    StudyConfig::quick()
}

/// A full paper-scale configuration: eight 24-hour traces (traces 3 and
/// 4 heavy) and a 14-day counter campaign on a 36-client cluster.
pub fn paper_config() -> StudyConfig {
    StudyConfig::default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_are_consistent() {
        let b = bench_config();
        assert_eq!(b.cluster.num_clients, b.workload.num_clients);
        let p = paper_config();
        assert_eq!(p.cluster.num_clients, p.workload.num_clients);
        assert_eq!(p.traces.len(), 8);
        assert_eq!(p.counter_days, 14);
    }
}
