//! `tracetool` — inspect and manipulate SDFS trace files.
//!
//! ```text
//! tracetool dump  <trace.bin>              # binary → tab-separated text
//! tracetool stats <trace.bin>...           # Table 1 statistics per file
//! tracetool merge <out.bin> <in.bin>...    # k-way time merge
//! tracetool scrub <out.bin> <in.bin> <uid>...  # drop records of users
//! tracetool head  <trace.bin> [n]          # first n records as text
//! ```
//!
//! This is the workflow the paper describes in Section 3: per-server
//! trace files are merged into one ordered list, and records produced by
//! the tracing itself or the nightly backup are scrubbed by user id.
//!
//! `dump`, `head` and `stats` stream their trace one record at a time.
//! `merge` and `scrub` read every input before they create the output,
//! so the output may name one of the inputs: they hold the whole trace
//! in memory, and `merge` writes each record as the merge yields it.
//!
//! Everything printed on stdout goes through one buffered writer. When
//! the reader goes away early (`tracetool dump t.bin | head`), the
//! command stops and exits 0.
//!
//! A usage mistake prints the synopsis and exits 2. A trace file that is
//! missing, unreadable, corrupt or cannot be written prints only the
//! error and exits 1.

use std::io::{self, BufWriter, ErrorKind, Write};
use std::process::ExitCode;

use sdfs_trace::codec::to_text_line;
use sdfs_trace::file::{read_all, TraceWriter};
use sdfs_trace::merge::{merge_sources, Scrub};
use sdfs_trace::{TraceError, TraceReader, TraceStatsBuilder, UserId};

/// Why a command stopped early.
enum Error {
    /// Bad arguments.
    Usage(String),
    /// A trace file that cannot be read or written.
    Trace(String),
    /// Writing stdout failed.
    Stdout(io::Error),
}

impl From<String> for Error {
    fn from(msg: String) -> Self {
        Error::Usage(msg)
    }
}

impl From<&str> for Error {
    fn from(msg: &str) -> Self {
        Error::Usage(msg.to_string())
    }
}

/// Stdout writes convert implicitly; trace files name their path
/// ([`in_file`]).
impl From<io::Error> for Error {
    fn from(e: io::Error) -> Self {
        Error::Stdout(e)
    }
}

/// Tags a trace-file error with the file's path.
fn in_file(path: &str) -> impl Fn(TraceError) -> Error + '_ {
    move |e| Error::Trace(format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = BufWriter::new(io::stdout().lock());
    let ran = run(&args, &mut out);
    let flushed = out.flush().map_err(Error::Stdout);
    match ran.and(flushed) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Error::Stdout(e)) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(Error::Stdout(e)) => {
            eprintln!("tracetool: cannot write stdout: {e}");
            ExitCode::FAILURE
        }
        Err(Error::Usage(msg)) => {
            eprintln!("tracetool: {msg}");
            eprintln!("usage: tracetool dump|head|stats|merge|scrub <files...>");
            ExitCode::from(2)
        }
        Err(Error::Trace(msg)) => {
            eprintln!("tracetool: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String], stdout: &mut impl Write) -> Result<(), Error> {
    let cmd = args.first().ok_or("missing subcommand")?;
    match cmd.as_str() {
        "dump" if args.len() > 2 => Err("dump: takes one file".into()),
        "dump" => dump(stdout, args.get(1).ok_or("dump: missing file")?, usize::MAX),
        "head" if args.len() > 3 => Err("head: takes one file and a count".into()),
        "head" => {
            let n = args
                .get(2)
                .map(|s| s.parse().map_err(|_| "head: bad count".to_string()))
                .transpose()?
                .unwrap_or(20);
            dump(stdout, args.get(1).ok_or("head: missing file")?, n)
        }
        "stats" => {
            if args.len() < 2 {
                return Err("stats: need at least one file".into());
            }
            for path in &args[1..] {
                stats(stdout, path)?;
            }
            Ok(())
        }
        "merge" => {
            let out = args.get(1).ok_or("merge: missing output")?;
            if args.len() < 3 {
                return Err("merge: need at least one input".into());
            }
            merge(out, &args[2..])
        }
        "scrub" => {
            let out = args.get(1).ok_or("scrub: missing output")?;
            let input = args.get(2).ok_or("scrub: missing input")?;
            if args.len() < 4 {
                return Err("scrub: need at least one user id".into());
            }
            let users: Result<Vec<u32>, _> = args[3..].iter().map(|s| s.parse::<u32>()).collect();
            let users = users.map_err(|_| "scrub: bad user id".to_string())?;
            scrub(out, input, &users)
        }
        other => Err(format!("unknown subcommand `{other}`").into()),
    }
}

fn dump(out: &mut impl Write, path: &str, limit: usize) -> Result<(), Error> {
    let reader = TraceReader::open(path).map_err(in_file(path))?;
    for (i, rec) in reader.enumerate() {
        if i >= limit {
            break;
        }
        let rec = rec.map_err(in_file(path))?;
        writeln!(out, "{}", to_text_line(&rec))?;
    }
    Ok(())
}

fn stats(out: &mut impl Write, path: &str) -> Result<(), Error> {
    let mut builder = TraceStatsBuilder::new();
    for rec in TraceReader::open(path).map_err(in_file(path))? {
        builder.record(&rec.map_err(in_file(path))?);
    }
    let s = builder.finish();
    writeln!(out, "{path}:")?;
    writeln!(out, "  duration:        {:.1} h", s.duration_hours())?;
    writeln!(
        out,
        "  users:           {} ({} with migration)",
        s.different_users, s.users_of_migration
    )?;
    writeln!(
        out,
        "  MB read/written: {:.1} / {:.1}",
        s.mbytes_read_files(),
        s.mbytes_written_files()
    )?;
    writeln!(out, "  MB from dirs:    {:.1}", s.mbytes_read_dirs())?;
    writeln!(
        out,
        "  events: {} opens, {} closes, {} seeks, {} deletes, {} truncates",
        s.open_events, s.close_events, s.reposition_events, s.delete_events, s.truncate_events
    )?;
    writeln!(
        out,
        "  shared: {} reads, {} writes",
        s.shared_read_events, s.shared_write_events
    )?;
    Ok(())
}

fn merge(out: &str, inputs: &[String]) -> Result<(), Error> {
    // Read every input before creating OUT, which may be one of them.
    let sources = inputs
        .iter()
        .map(|path| read_all(path).map_err(in_file(path)))
        .collect::<Result<Vec<_>, _>>()?;
    let mut writer = TraceWriter::create(out).map_err(in_file(out))?;
    for rec in merge_sources(sources) {
        writer.write(&rec).map_err(in_file(out))?;
    }
    let n = writer.count();
    writer.finish().map_err(in_file(out))?;
    eprintln!(
        "merged {} records from {} files into {out}",
        n,
        inputs.len()
    );
    Ok(())
}

fn scrub(out: &str, input: &str, users: &[u32]) -> Result<(), Error> {
    let records = read_all(input).map_err(in_file(input))?;
    let mut filter = Scrub::new();
    for &u in users {
        filter = filter.exclude_user(UserId(u));
    }
    let mut writer = TraceWriter::create(out).map_err(in_file(out))?;
    let before = records.len();
    for rec in filter.filter(records) {
        writer.write(&rec).map_err(in_file(out))?;
    }
    let kept = writer.count();
    writer.finish().map_err(in_file(out))?;
    eprintln!("kept {kept} of {before} records -> {out}");
    Ok(())
}
