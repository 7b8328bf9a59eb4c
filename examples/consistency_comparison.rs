//! Consistency mechanisms compared (Sections 5.5–5.6).
//!
//! Generates one trace, then:
//!
//! 1. sweeps the NFS-style polling interval and reports stale-data
//!    errors (extending the paper's Table 11 beyond 3 s and 60 s), and
//! 2. runs the three consistency-overhead simulators of Table 12
//!    (Sprite, modified Sprite, token-based).
//!
//! Run with: `cargo run --release --example consistency_comparison`

use sdfs_core::overhead::{simulate, Algorithm};
use sdfs_core::staleness::simulate_polling;
use sdfs_core::Study;
use sdfs_simkit::SimDuration;
use sdfs_workload::TraceSpec;

fn main() {
    let mut cfg = sdfs_core::StudyConfig::quick();
    cfg.workload.num_clients = 16;
    cfg.workload.num_users = 32;
    cfg.cluster.num_clients = 16;
    let study = Study::new(cfg);
    let spec = TraceSpec {
        seed: 7,
        heavy_sim: false,
    };
    eprintln!("generating trace...");
    let records = study.run_trace_full(spec).records;
    eprintln!("{} records", records.len());

    println!("Stale-data errors vs polling interval (Table 11 extended):");
    println!(
        "{:>10} {:>10} {:>14} {:>12}",
        "interval", "errors", "errors/hour", "users hit"
    );
    for secs in [1u64, 3, 10, 30, 60, 300] {
        let out = simulate_polling(&records, SimDuration::from_secs(secs));
        println!(
            "{:>9}s {:>10} {:>14.2} {:>11.0}%",
            secs,
            out.errors,
            out.errors_per_hour,
            out.users_affected_pct()
        );
    }

    println!("\nConsistency overhead on write-shared files (Table 12):");
    println!(
        "{:<18} {:>12} {:>12} {:>12} {:>12}",
        "algorithm", "app bytes", "alg bytes", "bytes ratio", "RPC ratio"
    );
    for (name, alg) in [
        ("Sprite", Algorithm::Sprite),
        ("Modified Sprite", Algorithm::SpriteModified),
        ("Token-based", Algorithm::Token),
    ] {
        let r = simulate(&records, alg);
        println!(
            "{:<18} {:>12} {:>12} {:>12.2} {:>12.2}",
            name,
            r.app_bytes,
            r.alg_bytes,
            r.bytes_ratio(),
            r.rpc_ratio()
        );
    }
    println!(
        "\nThe paper's conclusion: no clear winner — pick the simplest\n\
         mechanism unless write-sharing grows."
    );
}
