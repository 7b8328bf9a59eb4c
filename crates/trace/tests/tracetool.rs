//! End-to-end checks of the `tracetool` binary.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use sdfs_simkit::SimTime;
use sdfs_trace::codec::{write_magic, write_record};
use sdfs_trace::file::read_all;
use sdfs_trace::merge::merge_vecs;
use sdfs_trace::{ClientId, FileId, Pid, Record, RecordKind, TraceWriter, UserId};

/// A per-process scratch path, so parallel test runs do not collide.
fn temp_trace(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sdfs-tracetool-{name}-{}.bin", std::process::id()))
}

/// A create of file `file` by `user` at `millis`.
fn create(millis: u64, user: u32, file: u64) -> Record {
    Record {
        time: SimTime::from_millis(millis),
        client: ClientId(1),
        user: UserId(user),
        pid: Pid(3),
        migrated: false,
        kind: RecordKind::Create {
            file: FileId(file),
            is_dir: false,
        },
    }
}

fn write_trace(path: &Path, records: &[Record]) {
    let mut w = TraceWriter::create(path).expect("create trace");
    for rec in records {
        w.write(rec).expect("write record");
    }
    w.finish().expect("finish trace");
}

/// `tracetool dump t.bin | head -1`: the reader closes the pipe after one
/// line, long before the dump is done. The tool must stop quietly with
/// exit 0 rather than panic on the broken pipe.
#[test]
fn dump_into_a_closed_pipe_exits_0_without_panic() {
    let path = temp_trace("pipe");
    // ~1 MB of text, far more than a pipe buffers.
    let records: Vec<Record> = (0..20_000).map(|i| create(i, 2, i)).collect();
    write_trace(&path, &records);

    let mut child = Command::new(env!("CARGO_BIN_EXE_tracetool"))
        .arg("dump")
        .arg(&path)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tracetool");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("read one line");
    // The reader is dropped here, closing the pipe.
    let out = child.wait_with_output().expect("wait for tracetool");
    std::fs::remove_file(&path).ok();

    assert!(
        first.starts_with("0\t1\t2\t3\t0\tcreate\t0\t0"),
        "first line: {first:?}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
}

/// `tracetool merge a.bin a.bin b.bin` names an input as the output.
/// Each input is far larger than one read buffer, and the two share
/// every sixth millisecond. Creating the output must not truncate an
/// input that is still being read: `a.bin` ends up holding the merge.
#[test]
fn merge_into_one_of_its_inputs() {
    let (a, b) = (temp_trace("merge-a"), temp_trace("merge-b"));
    let ra: Vec<Record> = (0..20_000).map(|i| create(2 * i, 1, i)).collect();
    let rb: Vec<Record> = (0..20_000).map(|i| create(3 * i, 2, i)).collect();
    write_trace(&a, &ra);
    write_trace(&b, &rb);

    let out = Command::new(env!("CARGO_BIN_EXE_tracetool"))
        .arg("merge")
        .args([&a, &a, &b])
        .output()
        .expect("run tracetool");
    let merged = read_all(&a);
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();

    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    let merged = merged.expect("merged trace reads back");
    assert!(merged == merge_vecs(vec![ra, rb]), "merge differs");
}

/// A trace whose second record (1 s) is earlier than its first (5 s),
/// which `TraceWriter` would refuse, is corrupt on read: `stats`
/// fails, and so does `merge B A B`, before it creates B, so input B
/// keeps its bytes.
#[test]
fn a_trace_whose_time_goes_backwards_is_rejected_before_any_output() {
    let (a, b) = (temp_trace("backwards-a"), temp_trace("backwards-b"));
    let mut bytes = Vec::new();
    write_magic(&mut bytes).expect("magic");
    for rec in [create(5_000, 1, 1), create(1_000, 1, 2)] {
        write_record(&mut bytes, &rec).expect("record");
    }
    std::fs::write(&a, bytes).expect("write crafted trace");
    write_trace(&b, &[create(2_000, 2, 3), create(3_000, 2, 4)]);
    let b_before = std::fs::read(&b).expect("read B");

    let tracetool = |args: &[&Path]| {
        Command::new(env!("CARGO_BIN_EXE_tracetool"))
            .args(args)
            .output()
            .expect("run tracetool")
    };
    let stats = tracetool(&[Path::new("stats"), &a]);
    let merge = tracetool(&[Path::new("merge"), &b, &a, &b]);
    let b_after = std::fs::read(&b).expect("read B again");
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();

    for (cmd, out) in [("stats", &stats), ("merge", &merge)] {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cmd}: {stderr}");
        assert!(
            stderr.contains("record 1 at 00:00:01.000000 follows one at 00:00:05.000000"),
            "{cmd}: {stderr}"
        );
    }
    assert!(b_after == b_before, "merge rewrote its input B");
}

/// Runs tracetool with `extra` after a real two-record trace and a
/// trailing path that does not exist; `dump` takes one file and `head` a
/// file and a count, so the call must fail as a usage error (exit 2,
/// the usage line, nothing on stdout) instead of ignoring the extra
/// argument and succeeding.
fn assert_trailing_argument_rejected(name: &str, cmd: &str, count: Option<&str>) {
    let path = temp_trace(name);
    write_trace(&path, &[create(1, 2, 3), create(2, 2, 4)]);
    let mut args = vec![cmd.to_string(), path.display().to_string()];
    args.extend(count.map(str::to_string));
    args.push(temp_trace("missing").display().to_string());
    let out = Command::new(env!("CARGO_BIN_EXE_tracetool"))
        .args(&args)
        .output()
        .expect("run tracetool");
    std::fs::remove_file(&path).ok();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed records");
    assert!(stderr.contains("usage: tracetool"), "{args:?}: {stderr}");
}

/// A trace that does not exist is an input error, not a usage mistake:
/// exit 1, the error naming the path, and no usage line.
#[test]
fn a_missing_input_exits_1_without_usage() {
    let missing = temp_trace("nonexistent");
    let out = Command::new(env!("CARGO_BIN_EXE_tracetool"))
        .arg("stats")
        .arg(&missing)
        .output()
        .expect("run tracetool");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "stdout: {:?}", out.stdout);
    assert!(
        stderr.contains(&*missing.to_string_lossy()) && stderr.contains("trace I/O error"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("usage:"), "stderr: {stderr}");
}

#[test]
fn dump_rejects_a_trailing_argument() {
    assert_trailing_argument_rejected("dump-trailing", "dump", None);
}

#[test]
fn head_rejects_a_trailing_argument() {
    assert_trailing_argument_rejected("head-trailing", "head", Some("3"));
}
