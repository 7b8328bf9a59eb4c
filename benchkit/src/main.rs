//! `sdfs-benchkit`: the process the benchmark runner (`benchkit/run.py`)
//! launches, once per measured run.
//!
//! ```text
//! sdfs-benchkit run    --workload W --seed N [--setup-only]
//! sdfs-benchkit traced --workload W --seed N --spans on|off [--trace-out FILE]
//! sdfs-benchkit calibrate
//! ```
//!
//! `run` executes one workload once through the entry points `repro`
//! uses and checks its output; `traced` executes the traced per-layer
//! call sequence once; `calibrate` times the fixed host-speed reference
//! work. Each prints one JSON line on stdout. `run` and `traced` run
//! from the repository root, where the expected outputs live.

mod calibrate;
mod json;
mod span;
mod traced;
mod workloads;

use std::path::Path;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use sdfs_core::Study;

use json::Obj;
use workloads::{Expected, Workload};

fn usage() -> ! {
    eprintln!(
        "usage: sdfs-benchkit run --workload W --seed N [--setup-only]\n\
         \x20      sdfs-benchkit traced --workload W --seed N --spans on|off [--trace-out FILE]\n\
         \x20      sdfs-benchkit calibrate\n\
         workloads: quick, paper_traces"
    );
    std::process::exit(2);
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("calibrate") {
        let t = Instant::now();
        let checksum = calibrate::reference_work();
        let ref_s = t.elapsed().as_secs_f64();
        let out = Obj::new()
            .str("kind", "calibrate")
            .f64("ref_s", ref_s)
            .str("checksum", &hex(checksum));
        println!("{}", out.finish());
        return;
    }
    let workload = flag(&args, "--workload")
        .and_then(Workload::parse)
        .unwrap_or_else(|| usage());
    let seed: u64 = flag(&args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage());
    match args.first().map(String::as_str) {
        Some("run") => run(workload, seed, args.iter().any(|a| a == "--setup-only")),
        Some("traced") => {
            let on = match flag(&args, "--spans") {
                Some("on") => true,
                Some("off") => false,
                _ => usage(),
            };
            traced_run(workload, seed, on, flag(&args, "--trace-out"));
        }
        _ => usage(),
    }
}

fn hex(x: u64) -> String {
    format!("{x:016x}")
}

fn counts_obj<'a>(counts: impl IntoIterator<Item = (&'a &'static str, &'a u64)>) -> Obj {
    counts
        .into_iter()
        .fold(Obj::new(), |o, (k, v)| o.u64(k, *v))
}

fn check_obj(o: Obj, k: &str, v: Option<bool>) -> Obj {
    match v {
        Some(b) => o.bool(k, b),
        None => o.str(k, "no reference at this seed"),
    }
}

/// The input sizes every result records.
fn env_obj(study: &Study) -> Obj {
    let cfg = study.config();
    Obj::new()
        .u64("clients", u64::from(cfg.cluster.num_clients))
        .u64("servers", u64::from(cfg.cluster.num_servers))
        .u64("traces", cfg.traces.len() as u64)
        .u64(
            "heavy_traces",
            cfg.traces.iter().filter(|t| t.heavy_sim).count() as u64,
        )
        .u64("counter_days", u64::from(cfg.counter_days))
        .u64("trace_workers", cfg.parallelism as u64)
        .u64("cluster_threads", cfg.threads as u64)
}

/// One workload run, the way a user runs `repro`: set up, then run the
/// campaign, render and check.
fn run(w: Workload, seed: u64, setup_only: bool) {
    // Set-up: config construction and validation, and the expected output.
    let cfg = w.config(seed);
    if let Err(e) = cfg.cluster.validate().and(cfg.workload.validate()) {
        eprintln!("sdfs-benchkit: invalid configuration: {e}");
        std::process::exit(1);
    }
    let expected = Expected::load(Path::new("."), w, seed).unwrap_or_else(|e| {
        eprintln!("sdfs-benchkit: {e}");
        std::process::exit(1);
    });
    let study = Study::new(cfg);
    let setup_done = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock after 1970")
        .as_nanos();
    if setup_only {
        println!(
            "{}",
            Obj::new()
                .str("kind", "setup")
                .str("setup_done_unix_ns", &setup_done.to_string())
                .finish()
        );
        return;
    }

    let t = Instant::now();
    let mut results = match w {
        Workload::Quick => study.run_all(),
        Workload::PaperTraces => workloads::assemble(study.run_traces(), None),
    };
    let rendered = workloads::render(w, &mut results);
    let ok = expected.check(&rendered);
    let campaign_s = t.elapsed().as_secs_f64();

    let counts = workloads::result_counts(&results, &rendered);
    let out = Obj::new()
        .str("kind", "run")
        .str("setup_done_unix_ns", &setup_done.to_string())
        .f64("campaign_s", campaign_s)
        .str("digest", &hex(workloads::fnv1a64(rendered.as_bytes())));
    let out = check_obj(out, "output_ok", ok)
        .obj("counts", counts_obj(&counts))
        .obj("env", env_obj(&study));
    println!("{}", out.finish());
}

/// One pass of the traced call sequence, with spans on or off.
fn traced_run(w: Workload, seed: u64, on: bool, trace_out: Option<&str>) {
    let cfg = w.config(seed);
    let expected = Expected::load(Path::new("."), w, seed).unwrap_or_else(|e| {
        eprintln!("sdfs-benchkit: {e}");
        std::process::exit(1);
    });
    let study = Study::new(cfg);
    let t = Instant::now();
    let p = traced::pass(w, &study, on);
    let wall_s = t.elapsed().as_secs_f64();

    if let Some(path) = trace_out {
        if let Err(e) = std::fs::write(path, span::to_chrome_trace(p.tracer.spans())) {
            eprintln!("sdfs-benchkit: cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
    let metrics = traced::layer_metrics(&p)
        .into_iter()
        .fold(Obj::new(), |o, (k, v)| o.f64(k, v));
    let self_s = span::totals(p.tracer.spans())
        .into_iter()
        .fold(Obj::new(), |o, (k, v)| o.f64(k, v.self_ns as f64 / 1e9));
    let out = Obj::new()
        .str("kind", "traced")
        .bool("spans_on", on)
        .f64("wall_s", wall_s)
        .str("digest", &hex(workloads::fnv1a64(p.rendered.as_bytes())));
    let out = check_obj(out, "output_ok", expected.check(&p.rendered))
        .str("mismatch", p.mismatch.as_deref().unwrap_or(""))
        .obj("counts", counts_obj(&p.counts))
        .obj("metrics", metrics)
        .obj("self_s", self_s)
        .obj("env", env_obj(&study));
    println!("{}", out.finish());
}
