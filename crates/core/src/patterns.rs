//! Table 3: file access patterns.
//!
//! Accesses are classified by actual usage (read-only / write-only /
//! read-write) and by sequentiality (whole-file / other sequential /
//! random), weighted both by access count and by bytes transferred.
//! Directory accesses and zero-byte accesses are excluded, as in the
//! paper.

use sdfs_trace::Record;

use crate::access::{reconstruct, Access, AccessType, Sequentiality};

/// Counts and bytes for one (type, sequentiality) cell.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cell {
    /// Number of accesses.
    pub accesses: u64,
    /// Bytes transferred.
    pub bytes: u64,
}

/// One access-type row of Table 3.
#[derive(Debug, Clone, Copy, Default)]
pub struct TypeRow {
    /// Whole-file transfers.
    pub whole_file: Cell,
    /// Single-run but not whole-file.
    pub other_sequential: Cell,
    /// Multi-run accesses.
    pub random: Cell,
}

impl TypeRow {
    /// Total accesses in the row.
    pub fn accesses(&self) -> u64 {
        self.whole_file.accesses + self.other_sequential.accesses + self.random.accesses
    }

    /// Total bytes in the row.
    pub fn bytes(&self) -> u64 {
        self.whole_file.bytes + self.other_sequential.bytes + self.random.bytes
    }

    /// Percentage split of accesses across the three sequentiality
    /// classes.
    pub fn access_percentages(&self) -> [f64; 3] {
        percentages([
            self.whole_file.accesses,
            self.other_sequential.accesses,
            self.random.accesses,
        ])
    }

    /// Percentage split of bytes.
    pub fn byte_percentages(&self) -> [f64; 3] {
        percentages([
            self.whole_file.bytes,
            self.other_sequential.bytes,
            self.random.bytes,
        ])
    }
}

fn percentages(values: [u64; 3]) -> [f64; 3] {
    let total: u64 = values.iter().sum();
    if total == 0 {
        return [0.0; 3];
    }
    values.map(|v| 100.0 * v as f64 / total as f64)
}

/// The full Table 3.
#[derive(Debug, Clone, Default)]
pub struct AccessPatterns {
    /// Read-only accesses.
    pub read_only: TypeRow,
    /// Write-only accesses.
    pub write_only: TypeRow,
    /// Read-write accesses.
    pub read_write: TypeRow,
}

impl AccessPatterns {
    /// Total classified accesses.
    pub fn total_accesses(&self) -> u64 {
        self.read_only.accesses() + self.write_only.accesses() + self.read_write.accesses()
    }

    /// Total bytes.
    pub fn total_bytes(&self) -> u64 {
        self.read_only.bytes() + self.write_only.bytes() + self.read_write.bytes()
    }

    /// Percentage of accesses in each type (the paper's Accesses column).
    pub fn type_access_percentages(&self) -> [f64; 3] {
        percentages([
            self.read_only.accesses(),
            self.write_only.accesses(),
            self.read_write.accesses(),
        ])
    }

    /// Percentage of bytes in each type.
    pub fn type_byte_percentages(&self) -> [f64; 3] {
        percentages([
            self.read_only.bytes(),
            self.write_only.bytes(),
            self.read_write.bytes(),
        ])
    }

    /// Adds one access, skipping directories and zero-byte accesses as
    /// in the paper. Shared by [`from_accesses`] and the fused driver.
    pub fn add(&mut self, access: &Access) {
        if access.is_dir {
            return;
        }
        tally(self, access);
    }

    /// Adds every cell of `other` into this table: the cross-trace
    /// Table 3 and the scorecard sum the traces' tables.
    pub fn merge(&mut self, other: &AccessPatterns) {
        for (row, add) in [
            (&mut self.read_only, &other.read_only),
            (&mut self.write_only, &other.write_only),
            (&mut self.read_write, &other.read_write),
        ] {
            for (cell, add) in [
                (&mut row.whole_file, add.whole_file),
                (&mut row.other_sequential, add.other_sequential),
                (&mut row.random, add.random),
            ] {
                cell.accesses += add.accesses;
                cell.bytes += add.bytes;
            }
        }
    }

    /// Fraction of *all* transferred bytes that moved sequentially
    /// (whole-file or other-sequential runs) — the paper reports >90%.
    pub fn sequential_byte_fraction(&self) -> f64 {
        let total = self.total_bytes();
        if total == 0 {
            return 0.0;
        }
        let seq: u64 = [&self.read_only, &self.write_only, &self.read_write]
            .iter()
            .map(|r| r.whole_file.bytes + r.other_sequential.bytes)
            .sum();
        seq as f64 / total as f64
    }
}

/// Adds one access to the table.
fn tally(patterns: &mut AccessPatterns, access: &Access) {
    let Some(ty) = access.access_type() else {
        return;
    };
    let row = match ty {
        AccessType::ReadOnly => &mut patterns.read_only,
        AccessType::WriteOnly => &mut patterns.write_only,
        AccessType::ReadWrite => &mut patterns.read_write,
    };
    let cell = match access.sequentiality() {
        Sequentiality::WholeFile => &mut row.whole_file,
        Sequentiality::OtherSequential => &mut row.other_sequential,
        Sequentiality::Random => &mut row.random,
    };
    cell.accesses += 1;
    cell.bytes += access.total_bytes();
}

/// Computes Table 3 from reconstructed accesses.
pub fn from_accesses<'a>(accesses: impl IntoIterator<Item = &'a Access>) -> AccessPatterns {
    let mut patterns = AccessPatterns::default();
    for a in accesses {
        patterns.add(a);
    }
    patterns
}

/// Computes Table 3 straight from trace records.
pub fn table3(records: &[Record]) -> AccessPatterns {
    let accesses = reconstruct(records);
    from_accesses(&accesses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::Run;
    use sdfs_simkit::SimTime;
    use sdfs_trace::{ClientId, FileId, UserId};

    fn access(read: u64, written: u64, runs: Vec<Run>, size: u64) -> Access {
        Access {
            file: FileId(1),
            user: UserId(1),
            client: ClientId(0),
            migrated: false,
            opened_at: SimTime::ZERO,
            closed_at: SimTime::from_secs(1),
            total_read: read,
            total_written: written,
            size,
            size_at_open: size,
            is_dir: false,
            runs,
        }
    }

    #[test]
    fn classification_and_percentages() {
        let whole = access(
            100,
            0,
            vec![Run {
                start: 0,
                read: 100,
                written: 0,
            }],
            100,
        );
        let partial = access(
            50,
            0,
            vec![Run {
                start: 0,
                read: 50,
                written: 0,
            }],
            100,
        );
        let write = access(
            0,
            200,
            vec![Run {
                start: 0,
                read: 0,
                written: 200,
            }],
            200,
        );
        let rw = access(
            10,
            10,
            vec![
                Run {
                    start: 0,
                    read: 10,
                    written: 0,
                },
                Run {
                    start: 50,
                    read: 0,
                    written: 10,
                },
            ],
            100,
        );
        let accesses = vec![whole, partial, write, rw];
        let p = from_accesses(&accesses);
        assert_eq!(p.read_only.accesses(), 2);
        assert_eq!(p.write_only.accesses(), 1);
        assert_eq!(p.read_write.accesses(), 1);
        let ty = p.type_access_percentages();
        assert!((ty[0] - 50.0).abs() < 1e-9);
        let ro = p.read_only.access_percentages();
        assert!((ro[0] - 50.0).abs() < 1e-9, "whole-file half of reads");
        assert!((ro[1] - 50.0).abs() < 1e-9);
        assert_eq!(p.total_bytes(), 370);
    }

    #[test]
    fn dirs_and_empty_excluded() {
        let mut dir = access(
            100,
            0,
            vec![Run {
                start: 0,
                read: 100,
                written: 0,
            }],
            100,
        );
        dir.is_dir = true;
        let empty = access(0, 0, vec![], 100);
        let p = from_accesses(&[dir, empty]);
        assert_eq!(p.total_accesses(), 0);
    }

    #[test]
    fn sequential_byte_fraction() {
        let whole = access(
            90,
            0,
            vec![Run {
                start: 0,
                read: 90,
                written: 0,
            }],
            90,
        );
        let random = access(
            10,
            0,
            vec![
                Run {
                    start: 0,
                    read: 5,
                    written: 0,
                },
                Run {
                    start: 50,
                    read: 5,
                    written: 0,
                },
            ],
            100,
        );
        let p = from_accesses(&[whole, random]);
        assert!((p.sequential_byte_fraction() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn merge_sums_every_cell() {
        let mut p = AccessPatterns::default();
        p.read_only.whole_file = Cell {
            accesses: 1,
            bytes: 2,
        };
        p.write_only.other_sequential.bytes = 3;
        p.read_write.random.accesses = 4;
        let mut sum = p.clone();
        sum.merge(&p);
        assert_eq!(sum.read_only.whole_file.accesses, 2);
        assert_eq!(sum.read_only.whole_file.bytes, 4);
        assert_eq!(sum.write_only.other_sequential.bytes, 6);
        assert_eq!(sum.read_write.random.accesses, 8);
        assert_eq!(sum.total_accesses(), 2 * p.total_accesses());
        assert_eq!(sum.total_bytes(), 2 * p.total_bytes());
    }

    #[test]
    fn empty_table_is_safe() {
        let p = AccessPatterns::default();
        assert_eq!(p.type_access_percentages(), [0.0; 3]);
        assert_eq!(p.sequential_byte_fraction(), 0.0);
    }
}
