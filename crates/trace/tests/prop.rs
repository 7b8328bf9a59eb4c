//! Randomized tests for the trace format: arbitrary records must survive
//! the binary encoding, and merging must preserve order and content.
//!
//! The cases are generated with the workspace's own seeded `SimRng`
//! rather than an external property-testing crate so the suite runs
//! hermetically offline; every failure reproduces from the fixed seed.

use sdfs_simkit::{SimDuration, SimRng, SimTime};
use sdfs_trace::file::{from_bytes, to_bytes};
use sdfs_trace::merge::merge_vecs;
use sdfs_trace::{ClientId, FileId, Handle, OpenMode, Pid, Record, RecordKind, UserId};

const CASES: usize = 256;

fn random_mode(rng: &mut SimRng) -> OpenMode {
    match rng.below(3) {
        0 => OpenMode::Read,
        1 => OpenMode::Write,
        _ => OpenMode::ReadWrite,
    }
}

fn random_kind(rng: &mut SimRng) -> RecordKind {
    match rng.below(10) {
        0 => RecordKind::Open {
            fd: Handle(rng.next_u64()),
            file: FileId(rng.next_u64()),
            mode: random_mode(rng),
            size: rng.next_u64(),
            is_dir: rng.chance(0.5),
        },
        1 => RecordKind::Reposition {
            fd: Handle(rng.next_u64()),
            file: FileId(rng.next_u64()),
            from: rng.next_u64(),
            to: rng.next_u64(),
            run_read: rng.next_u64(),
            run_written: rng.next_u64(),
        },
        2 => RecordKind::Close {
            fd: Handle(rng.next_u64()),
            file: FileId(rng.next_u64()),
            offset: rng.next_u64(),
            run_read: rng.next_u64(),
            run_written: rng.next_u64(),
            total_read: rng.next_u64(),
            total_written: rng.next_u64(),
            size: rng.next_u64(),
            opened_at: SimTime::from_micros(rng.next_u64()),
        },
        3 => RecordKind::Create {
            file: FileId(rng.next_u64()),
            is_dir: rng.chance(0.5),
        },
        4 => RecordKind::Delete {
            file: FileId(rng.next_u64()),
            size: rng.next_u64(),
            is_dir: rng.chance(0.5),
            oldest_age: SimDuration::from_micros(rng.next_u64()),
            newest_age: SimDuration::from_micros(rng.next_u64()),
        },
        5 => RecordKind::Truncate {
            file: FileId(rng.next_u64()),
            old_size: rng.next_u64(),
            oldest_age: SimDuration::from_micros(rng.next_u64()),
            newest_age: SimDuration::from_micros(rng.next_u64()),
        },
        6 => RecordKind::SharedRead {
            file: FileId(rng.next_u64()),
            offset: rng.next_u64(),
            len: rng.next_u64(),
        },
        7 => RecordKind::SharedWrite {
            file: FileId(rng.next_u64()),
            offset: rng.next_u64(),
            len: rng.next_u64(),
        },
        8 => RecordKind::DirRead {
            file: FileId(rng.next_u64()),
            bytes: rng.next_u64(),
        },
        _ => RecordKind::Open {
            fd: Handle(rng.below(8)),
            file: FileId(rng.below(8)),
            mode: random_mode(rng),
            size: rng.below(1 << 20),
            is_dir: false,
        },
    }
}

fn random_record(rng: &mut SimRng) -> Record {
    Record {
        time: SimTime::from_micros(rng.next_u64()),
        client: ClientId(rng.below(1 << 16) as u16),
        user: UserId(rng.below(1 << 32) as u32),
        pid: Pid(rng.below(1 << 32) as u32),
        migrated: rng.chance(0.5),
        kind: random_kind(rng),
    }
}

/// Records sorted by time (trace writers require monotone time).
fn sorted_records(rng: &mut SimRng, max: u64) -> Vec<Record> {
    let n = rng.below(max + 1) as usize;
    let mut v: Vec<Record> = (0..n).map(|_| random_record(rng)).collect();
    v.sort_by_key(|r| r.time);
    v
}

#[test]
fn binary_round_trip() {
    let mut rng = SimRng::seed_from_u64(0x7261_6365_0001);
    for _ in 0..CASES {
        let records = sorted_records(&mut rng, 50);
        let bytes = to_bytes(&records).expect("encode");
        let back = from_bytes(&bytes).expect("decode");
        assert_eq!(back, records);
    }
}

#[test]
fn truncated_binary_never_panics() {
    let mut rng = SimRng::seed_from_u64(0x7261_6365_0003);
    for _ in 0..CASES {
        let records = sorted_records(&mut rng, 10);
        let bytes = to_bytes(&records).expect("encode");
        if bytes.is_empty() {
            continue;
        }
        let cut = rng.below(bytes.len() as u64) as usize;
        // Decoding a truncated stream must error or return a prefix, not
        // panic.
        let _ = from_bytes(&bytes[..cut]);
    }
}

#[test]
fn corrupted_binary_never_panics() {
    let mut rng = SimRng::seed_from_u64(0x7261_6365_0004);
    for _ in 0..CASES {
        let records = sorted_records(&mut rng, 5);
        let mut bytes = to_bytes(&records).expect("encode");
        if bytes.is_empty() {
            continue;
        }
        let i = rng.below(bytes.len() as u64) as usize;
        bytes[i] = rng.below(256) as u8;
        let _ = from_bytes(&bytes);
    }
}

#[test]
fn merge_is_sorted_and_complete() {
    let mut rng = SimRng::seed_from_u64(0x7261_6365_0005);
    for _ in 0..CASES {
        let a = sorted_records(&mut rng, 30);
        let b = sorted_records(&mut rng, 30);
        let c = sorted_records(&mut rng, 30);
        let total = a.len() + b.len() + c.len();
        let merged = merge_vecs(vec![a, b, c]);
        assert_eq!(merged.len(), total);
        for w in merged.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
    }
}
