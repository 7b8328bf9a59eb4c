#!/usr/bin/env python3
"""BenchKit runner: repeated-run benchmark of the SDFS study.

Run from the repository root:

    python3 benchkit/run.py --workload quick --seed 0 --seconds 55 --trace 0

It builds ``benchkit/`` (a package of its own, against the repository's
crates) into ``$CARGO_TARGET_DIR`` (default ``.bench_build``), then for
``--seconds`` launches one fresh process per workload run, one after
another, with runs of a fixed host-speed reference in between, and
reports medians of timings normalized to that reference. ``--trace 1``
instead runs the traced per-layer call sequence, alternating passes with
spans on and off.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (spreads, run counts, environment, self times).
Per-run stdout/stderr and the Chrome trace go to ``.bench_out/``.
See ``benchkit/README.md`` for the workloads and metrics.
"""

import argparse
import json
import os
import select
import subprocess
import sys
import time
from collections import namedtuple

from stats import median, quartiles, spread, tail_percentile

WORKLOADS = ("quick", "paper_traces")
REQUIRED = (
    "BENCHMARK.json",
    "Cargo.toml",
    "crates/core/Cargo.toml",
    "scripts/golden/quick_all_stdout.txt",
    "benchkit/Cargo.toml",
    "benchkit/reference_digests.txt",
)
OUT_DIR = ".bench_out"
# Set-up probes (processes that set up and exit) after each gap's
# reference runs.
SETUP_PER_GAP = 5
# Workload runs per untraced run, at least, whatever --seconds says.
MIN_RUNS = 3
# How often the runner samples a child's thread count.
SAMPLE_S = 0.02
# A child still running after this long has failed.
CHILD_TIMEOUT_S = 150.0
# Stop launching runs after this many have failed.
MAX_FAILURES = 5
MIN_COVERAGE_PCT = 90.0
# Host-speed reference (``sdfs-benchkit calibrate``): a fixed piece of work
# timed CAL_PER_GAP times in each gap between workload runs (more on the
# longer workload, whose runs have fewer gaps). A timing's normalized
# value is the timing times REF_NOMINAL_S over the median of the nearest
# reference times. REF_NOMINAL_S, about the reference's time on a quiet
# host, only sets the scale; it must never change, or results of
# different commits stop comparing. See benchkit/README.md.
CAL_PER_GAP = {"quick": 2, "paper_traces": 4}
REF_NOMINAL_S = 0.125
# Workload seeds per benchmark seed: --seed N runs workload seeds N*K to
# N*K+K-1 in turn, so one seed's unusually light or heavy inputs do not
# set a run's result (on quick, the counter campaign's block operations
# range from 305k to 582k over workload seeds 1-10). The traced run uses
# workload seed N*K; workload seed 0 is the repro configuration.
SEEDS_PER_RUN = {"quick": 8, "paper_traces": 4}

# Layers a workload does not run report 0 for their metrics; every other
# per-layer metric must be positive. trace.emit_s and trace.ns_per_record
# are differences of two timings, and trace_overhead_pct of two walls, so
# they may read zero or below within noise.
NOT_RUN = {"quick": (), "paper_traces": ("core.counters_",)}
MAY_BE_NONPOSITIVE = ("trace.emit_s", "trace.ns_per_record", "trace_overhead_pct")


def load_metrics():
    """Metric names and units, from BENCHMARK.json."""
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def log(msg):
    print(f"benchkit: {msg}", file=sys.stderr, flush=True)


# One finished child process and what it reported.
Child = namedtuple("Child", "code wall cpu rss_mb threads spawn_ns report err")


def count_threads(pid):
    try:
        return len(os.listdir(f"/proc/{pid}/task"))
    except OSError:
        return 0


def spawn(argv, tag):
    """Runs ``argv`` to completion with stdout/stderr in files; measures
    wall time to exit, rusage CPU and peak RSS, and samples threads."""
    out_path = os.path.join(OUT_DIR, tag + ".out")
    err_path = os.path.join(OUT_DIR, tag + ".err")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
    ]
    spawn_ns = time.time_ns()
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    threads = 0
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        while not poller.poll(SAMPLE_S * 1000):
            threads = max(threads, count_threads(pid))
            if time.perf_counter() - t0 > CHILD_TIMEOUT_S:
                os.kill(pid, 9)
        wall = time.perf_counter() - t0
    finally:
        os.close(pidfd)
        _, status, ru = os.wait4(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    report = None
    with open(out_path, encoding="utf-8", errors="replace") as f:
        lines = f.read().strip().splitlines()
    if lines:
        try:
            report = json.loads(lines[-1])
        except ValueError:
            report = None
    err = ""
    if code != 0:
        with open(err_path, encoding="utf-8", errors="replace") as f:
            err = f.read()[-2000:]
    return Child(code, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
                 max(threads, 1), spawn_ns, report, err)


def build():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", "benchkit/Cargo.toml"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, check=False)
    if proc.returncode != 0:
        log(f"build failed ({proc.returncode})")
        sys.exit(1)
    log(f"built in {time.perf_counter() - t0:.1f} s")
    return os.path.abspath(os.path.join(target, "release", "sdfs-benchkit"))


def git_commit():
    if not os.path.isdir(".git"):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def summary(values):
    """Median, quartiles, sample count, and the highest percentile with
    ten samples beyond it (when there are that many)."""
    if not values:
        return {"n": 0}
    q1, q2, q3 = quartiles(values)
    out = {"median": q2, "q1": q1, "q3": q3, "spread": spread(values), "n": len(values)}
    tail = tail_percentile(values)
    if tail:
        out["tail_pct"], out["tail_value"] = tail
    return out


class Checker:
    """Collects per-run failures and benchmark-level self-check failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digest = {}
        self.counts = {}
        self.ref_checksum = None

    def child(self, c, what, seed):
        """Counts one child that ran workload seed ``seed``; returns its
        report if it ran cleanly."""
        self.attempted += 1
        r = c.report
        why = None
        if c.code != 0:
            why = f"exit code {c.code}: {c.err.strip()[-300:]}"
        elif r is None:
            why = "no report"
        elif r.get("output_ok") is False:
            why = "output does not match the reference"
        elif r.get("mismatch"):
            why = r["mismatch"]
        elif "digest" in r:
            first = self.digest.setdefault(seed, r["digest"])
            if r["digest"] != first:
                why = f"output digest {r['digest']} differs from {first} at workload seed {seed}"
        if why is None and r is not None and "counts" in r:
            why = self.same_counts(seed, r["counts"])
        if why:
            self.failed += 1
            self.problems.append(f"{what}: {why}")
            return None
        return r

    def same_counts(self, seed, counts):
        """Work counts must repeat exactly at one workload seed; keys present
        on both sides are compared."""
        known = self.counts.setdefault(seed, {})
        diff = {k: (known[k], v) for k, v in counts.items() if k in known and known[k] != v}
        known.update(counts)
        return f"work counts differ at workload seed {seed}: {diff}" if diff else None

    def require(self, ok, problem):
        if not ok:
            self.problems.append(problem)


def env_record(args, bin_path, first_report, threads):
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "host_cpus": os.cpu_count(),
        "git_commit": git_commit(),
        "build_profile": "release",
        "binary": os.path.relpath(bin_path),
        "workload": args.workload,
        "seed": args.seed,
        "workload_seeds": workload_seeds(args),
        "program_threads_peak": threads,
    }
    if first_report:
        env.update(first_report.get("env", {}))
    return env


def workload_seeds(args):
    k = SEEDS_PER_RUN[args.workload]
    return [args.seed * k + j for j in range(k)]


def calibrate(bin_path, chk, n, tag):
    """Times the fixed reference work ``n`` times; returns the times."""
    times = []
    for j in range(n):
        c = spawn([bin_path, "calibrate"], f"{tag}-cal{j}")
        r = c.report or {}
        ok = c.code == 0 and r.get("ref_s", 0) > 0
        chk.require(ok, f"reference run {tag}-cal{j} failed: exit code {c.code}")
        if ok:
            chk.require(chk.ref_checksum in (None, r["checksum"]),
                        f"reference checksum {r['checksum']} differs from {chk.ref_checksum}")
            chk.ref_checksum = r["checksum"]
            times.append(r["ref_s"])
    return times


def untraced(args, bin_path, chk, units):
    """Alternates gaps (reference runs, then set-up probes) with workload
    runs, gap first and last, until ``--seconds`` is spent."""
    w = args.workload
    seeds = workload_seeds(args)

    def argv(i):
        return [bin_path, "run", "--workload", w, "--seed", str(seeds[i % len(seeds)])]

    # Reported series (timings normalized to the reference), and the raw
    # timings they come from.
    series = {"norm_cpu_s": [], "norm_wall_s": [], "peak_rss_mb": [], "setup_s": []}
    raw = {"wall_s": [], "cpu_s": [], "setup_s": [], "ref_s": []}
    runs, steps = [], []

    def add_setup(c, r, ref):
        setup = (int(r["setup_done_unix_ns"]) - c.spawn_ns) / 1e9
        raw["setup_s"].append(setup)
        series["setup_s"].append(setup * REF_NOMINAL_S / ref)

    def gap(k):
        refs = calibrate(bin_path, chk, CAL_PER_GAP[w], f"{w}-gap{k}")
        raw["ref_s"] += refs
        for i in range(SETUP_PER_GAP):
            c = spawn(argv(k + i) + ["--setup-only"], f"{w}-gap{k}-setup{i}")
            r = chk.child(c, f"set-up probe {i} of gap {k}", None)
            if r and refs:
                add_setup(c, r, median(refs))
        return refs

    before = gap(0)
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if len(runs) >= MIN_RUNS and (elapsed >= args.seconds
                                      or elapsed + median(steps) > args.seconds):
            break
        if chk.failed > MAX_FAILURES:
            break
        step0 = time.perf_counter()
        n = len(steps)
        seed = seeds[n % len(seeds)]
        c = spawn(argv(n), f"{w}-run{n}")
        r = chk.child(c, f"run {n} (workload seed {seed})", seed)
        after = gap(n + 1)
        steps.append(time.perf_counter() - step0)
        if r and (before or after):
            runs.append((c, r))
            ref = median(before + after)
            raw["wall_s"].append(c.wall)
            raw["cpu_s"].append(c.cpu)
            series["norm_wall_s"].append(c.wall * REF_NOMINAL_S / ref)
            series["norm_cpu_s"].append(c.cpu * REF_NOMINAL_S / ref)
            series["peak_rss_mb"].append(c.rss_mb)
            add_setup(c, r, ref)
        before = after
    chk.require(runs, "no workload run succeeded")
    metrics = {k: {"value": median(series[k]), "unit": u}
               for k, u in units.items() if series[k]}
    details = {
        "summary": {k: summary(v) for k, v in series.items()},
        "raw": {k: summary(v) for k, v in raw.items()},
        "campaign_s": summary([r["campaign_s"] for _, r in runs]),
        "fail_pct": 100.0 * chk.failed / max(chk.attempted, 1),
        "runs_attempted": len(steps),
        "counts": chk.counts,
        "env": env_record(args, bin_path, runs[0][1] if runs else None,
                          max((c.threads for c, _ in runs), default=0)),
    }
    return metrics, details


def traced(args, bin_path, chk, units):
    w, seed = args.workload, str(workload_seeds(args)[0])
    trace_path = os.path.join(OUT_DIR, f"trace-{w}-seed{seed}.json")
    # One untraced run: its output and work counts must match the traced passes'.
    c = spawn([bin_path, "run", "--workload", w, "--seed", seed], f"{w}-untraced")
    untraced_report = chk.child(c, "untraced run", seed)
    threads = c.threads
    on, off = [], []
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        passes = on + off
        if on and off and (elapsed >= args.seconds or
                           elapsed + median([p[0].wall for p in passes]) > args.seconds):
            break
        spans_on = len(on) <= len(off)
        argv = [bin_path, "traced", "--workload", w, "--seed", seed,
                "--spans", "on" if spans_on else "off"]
        if spans_on and not on:
            argv += ["--trace-out", trace_path]
        tag = f"{w}-traced{len(passes)}-{'on' if spans_on else 'off'}"
        c = spawn(argv, tag)
        threads = max(threads, c.threads)
        r = chk.child(c, tag, seed)
        if r is None:
            break  # the result has failed; more passes cannot fix it
        (on if spans_on else off).append((c, r))
    chk.require(on and off, "traced run incomplete")
    values = {name: [r["metrics"][name] for _, r in on if name in r["metrics"]]
              for name in units}
    if on and off:
        wall_on = median([r["wall_s"] for _, r in on])
        wall_off = median([r["wall_s"] for _, r in off])
        values["trace_overhead_pct"] = [100.0 * (wall_on - wall_off) / wall_off]
    metrics = {}
    for name, u in units.items():
        if not values[name] or (name != "trace_overhead_pct" and len(values[name]) < len(on)):
            chk.require(False, f"per-layer metric {name} missing")
            continue
        metrics[name] = {"value": median(values[name]), "unit": u}
        if name not in MAY_BE_NONPOSITIVE and not name.startswith(NOT_RUN[w]):
            chk.require(metrics[name]["value"] > 0,
                        f"per-layer metric {name} is not positive on {w}, which runs its layer")
    for _, r in on:
        cov = r["metrics"].get("traced.coverage_pct", 0)
        chk.require(cov >= MIN_COVERAGE_PCT,
                    f"layer spans cover {cov:.1f}% of the traced run (< {MIN_COVERAGE_PCT}%)")
    self_s = {}
    for _, r in on:
        for k, v in r["self_s"].items():
            self_s.setdefault(k, []).append(v)
    details = {
        "passes_on": len(on),
        "passes_off": len(off),
        "summary": {k: summary(v) for k, v in values.items() if v},
        "self_s": {k: median(v) for k, v in self_s.items()},
        "chrome_trace": trace_path if on else None,
        "counts": chk.counts,
        "env": env_record(args, bin_path, untraced_report, threads),
    }
    return metrics, details


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        log(f"run from the repository root; missing {', '.join(missing)}")
        sys.exit(2)
    bin_path = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    end_to_end, per_layer = load_metrics()
    chk = Checker()
    if args.trace:
        metrics, details = traced(args, bin_path, chk, per_layer)
    else:
        metrics, details = untraced(args, bin_path, chk, end_to_end)
    details["problems"] = chk.problems
    print(json.dumps(details, sort_keys=True))
    for p in chk.problems:
        log(p)
    print(json.dumps({
        "correct": not chk.problems,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
