//! Workload configuration and calibration knobs.
//!
//! The defaults are calibrated so the downstream analyses land in the
//! neighbourhood of the paper's numbers (see `EXPERIMENTS.md` for the
//! paper-vs-measured comparison). Everything that controls a measurable
//! quantity is named here rather than a literal buried in an
//! application model: a named constant, or a field of
//! [`WorkloadConfig`] when some run varies it.

/// Probability that a given regular user appears on a given day (the
/// traces saw 33–50 distinct users out of ~70).
pub const DAILY_PRESENCE: f64 = 0.85;

/// Fraction of users who are day-to-day regulars (about 30 of 70); the
/// rest are occasional and appear with a third of the presence.
pub const REGULAR_FRACTION: f64 = 0.45;

/// Mean think time between application bursts, in seconds, at
/// [`WorkloadConfig::activity_scale`] 1.0.
pub const THINK_MEAN_SECS: f64 = 25.0;

/// Mean number of work sessions per present user per day.
pub const SESSIONS_PER_DAY: f64 = 1.8;

/// Mean session length, in hours.
pub const SESSION_HOURS: f64 = 3.5;

/// Effective application processing rate for file data, bytes/sec
/// (sets open durations; 1991 workstations were ~10 MIPS).
pub const PROC_RATE: f64 = 2.0e6;

/// Open/close kernel-call overhead on a network file system, seconds
/// (the paper cites a 4–5x penalty over local file systems).
pub const OPEN_OVERHEAD_SECS: f64 = 0.004;

/// Number of idle hosts a migrated pmake fans out to.
pub const PMAKE_FANOUT: usize = 6;

/// Identifies one 24-hour trace to generate.
#[derive(Debug, Clone, Copy)]
pub struct TraceSpec {
    /// Seed for this trace's randomness (distinct seeds give the
    /// trace-to-trace variation the paper shows).
    pub seed: u64,
    /// Whether the two heavy simulation users are present (traces 3 and 4
    /// of the paper: one user reading 20-Mbyte inputs, one producing a
    /// 10-Mbyte output that is post-processed and deleted, both running
    /// repeatedly all day).
    pub heavy_sim: bool,
}

impl TraceSpec {
    /// The paper's eight traces: all normal except traces 3 and 4.
    pub fn paper_eight(base_seed: u64) -> Vec<TraceSpec> {
        (0..8)
            .map(|i| TraceSpec {
                seed: base_seed.wrapping_add(i as u64 * 0x9E37_79B9),
                heavy_sim: i == 2 || i == 3,
            })
            .collect()
    }
}

/// Full workload configuration.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Master seed.
    pub seed: u64,
    /// Number of client workstations (must match the cluster config).
    pub num_clients: u16,
    /// Total user population (the cluster had about 70 accounts).
    pub num_users: u32,
    /// Whether the two heavy simulation users are active.
    pub heavy_sim: bool,
    /// Global activity multiplier (1.0 reproduces paper-scale volume;
    /// smaller values make quick tests cheap).
    pub activity_scale: f64,
    /// Probability that a compile burst uses pmake with process
    /// migration (10–30% of cycles ran migrated).
    pub migration_fraction: f64,
    /// Rate multiplier for the shared-database activity that produces
    /// write sharing (Tables 10–12).
    pub sharing_scale: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            seed: 0x5DF5_1991,
            num_clients: 36,
            num_users: 70,
            heavy_sim: false,
            activity_scale: 1.0,
            migration_fraction: 0.25,
            sharing_scale: 1.0,
        }
    }
}

impl WorkloadConfig {
    /// A cheap configuration for unit tests: few users, low activity.
    pub fn small() -> Self {
        WorkloadConfig {
            num_clients: 4,
            num_users: 6,
            activity_scale: 0.2,
            ..WorkloadConfig::default()
        }
    }

    /// Applies a per-trace spec on top of this configuration.
    pub fn for_trace(&self, spec: TraceSpec) -> WorkloadConfig {
        WorkloadConfig {
            seed: spec.seed,
            heavy_sim: spec.heavy_sim,
            ..self.clone()
        }
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_clients == 0 {
            return Err("need at least one client".into());
        }
        if self.num_users == 0 {
            return Err("need at least one user".into());
        }
        if !(0.0..=1.0).contains(&self.migration_fraction) {
            return Err("migration_fraction must be a probability".into());
        }
        if self.activity_scale <= 0.0 {
            return Err("activity_scale must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_valid() {
        WorkloadConfig::default().validate().expect("default valid");
        WorkloadConfig::small().validate().expect("small valid");
    }

    #[test]
    fn paper_eight_traces() {
        let specs = TraceSpec::paper_eight(1);
        assert_eq!(specs.len(), 8);
        assert!(!specs[0].heavy_sim);
        assert!(specs[2].heavy_sim);
        assert!(specs[3].heavy_sim);
        assert!(!specs[7].heavy_sim);
        // Seeds distinct.
        let mut seeds: Vec<u64> = specs.iter().map(|s| s.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 8);
    }

    #[test]
    fn for_trace_overrides() {
        let base = WorkloadConfig::default();
        let spec = TraceSpec {
            seed: 99,
            heavy_sim: true,
        };
        let c = base.for_trace(spec);
        assert_eq!(c.seed, 99);
        assert!(c.heavy_sim);
        assert_eq!(c.num_users, base.num_users);
    }

    #[test]
    fn validation_rejects_bad_values() {
        let c = WorkloadConfig {
            num_users: 0,
            ..WorkloadConfig::default()
        };
        assert!(c.validate().is_err());
        let c = WorkloadConfig {
            activity_scale: 0.0,
            ..WorkloadConfig::default()
        };
        assert!(c.validate().is_err());
    }
}
