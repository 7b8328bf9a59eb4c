//! End-to-end checks of the `tracetool` binary.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

use sdfs_simkit::SimTime;
use sdfs_trace::{ClientId, FileId, Pid, Record, RecordKind, TraceWriter, UserId};

/// `tracetool dump t.bin | head -1`: the reader closes the pipe after one
/// line, long before the dump is done. The tool must stop quietly with
/// exit 0 rather than panic on the broken pipe.
#[test]
fn dump_into_a_closed_pipe_exits_0_without_panic() {
    let path = std::env::temp_dir().join(format!("sdfs-tracetool-pipe-{}.bin", std::process::id()));
    let mut w = TraceWriter::create(&path).expect("create trace");
    // ~1 MB of text, far more than a pipe buffers.
    for i in 0..20_000u64 {
        w.write(&Record {
            time: SimTime::from_millis(i),
            client: ClientId(1),
            user: UserId(2),
            pid: Pid(3),
            migrated: false,
            kind: RecordKind::Create {
                file: FileId(i),
                is_dir: false,
            },
        })
        .expect("write record");
    }
    w.finish().expect("finish trace");

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
