#!/usr/bin/env bash
# Offline verification gate: tier-1 tests plus end-to-end report runs.
# No network access required — the workspace has no external
# dependencies.
#
# Usage: scripts/verify.sh
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> tier-1: cargo build --release"
cargo build --release --offline

echo "==> tier-1: cargo test -q (its tests/planecheck.rs runs clippy's determinism bans on the workspace and on scripts/clippy_fixture)"
cargo test -q --offline

echo "==> static: no external dependencies (Cargo.lock names no source)"
if grep -n "^source = " Cargo.lock; then echo "Cargo.lock pulls in an external dependency"; exit 1; fi

echo "==> static: cargo doc -D warnings (no broken intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> benchkit: builds against the workspace API and passes its own tests"
cargo test --offline -q --manifest-path benchkit/Cargo.toml
python3 -m unittest discover benchkit

echo "==> end-to-end: repro --quick all"
start_ms=$(date +%s%3N)
./target/release/repro --quick all > /tmp/verify_report.txt
end_ms=$(date +%s%3N)
echo "    report: $(wc -c < /tmp/verify_report.txt) bytes in $((end_ms - start_ms)) ms"

echo "==> golden: report byte-identical to scripts/golden/quick_all_stdout.txt"
cmp scripts/golden/quick_all_stdout.txt /tmp/verify_report.txt

echo "==> golden: repro --quick extensions byte-identical to scripts/golden/quick_extensions_stdout.txt"
./target/release/repro --quick extensions > /tmp/verify_extensions.txt
cmp scripts/golden/quick_extensions_stdout.txt /tmp/verify_extensions.txt

echo "==> golden: repro --quick ablations (write-back delays 5-600 s) byte-identical to scripts/golden/quick_ablations_stdout.txt"
./target/release/repro --quick ablations > /tmp/verify_ablations.txt
cmp scripts/golden/quick_ablations_stdout.txt /tmp/verify_ablations.txt

echo "==> golden: repro --quick latency (paging and server byte totals) byte-identical to scripts/golden/quick_latency_stdout.txt"
./target/release/repro --quick latency > /tmp/verify_latency.txt
cmp scripts/golden/quick_latency_stdout.txt /tmp/verify_latency.txt

echo "==> sanitizer: repro --quick --sanitize all (must be clean and byte-identical)"
./target/release/repro --quick --sanitize all > /tmp/verify_report_san.txt
cmp /tmp/verify_report.txt /tmp/verify_report_san.txt

echo "==> observer: repro --quick --observe all (report on stderr, stdout byte-identical)"
./target/release/repro --quick --observe all > /tmp/verify_report_obs.txt 2> /tmp/verify_obs_stderr.txt
cmp /tmp/verify_report.txt /tmp/verify_report_obs.txt
grep -q "sdfs-obs self-measurement report" /tmp/verify_obs_stderr.txt

echo "==> campaign workers: repro --quick all at --threads 1, --threads 3 (every quick job at once) and the default (one per host CPU), each byte-identical to the golden"
for threads in 1 3; do
    ./target/release/repro --quick --threads "$threads" all > "/tmp/verify_report_t$threads.txt"
    cmp scripts/golden/quick_all_stdout.txt "/tmp/verify_report_t$threads.txt"
done
cmp scripts/golden/quick_all_stdout.txt /tmp/verify_report.txt

echo "==> observer: a second --observe run renders the same report"
./target/release/repro --quick --observe all > /dev/null 2> /tmp/verify_obs_stderr_2.txt
# The obs report is deterministic except the wall-clock timing line.
grep -v "study complete in" /tmp/verify_obs_stderr.txt > /tmp/verify_obs_a.txt
grep -v "study complete in" /tmp/verify_obs_stderr_2.txt > /tmp/verify_obs_b.txt
cmp /tmp/verify_obs_a.txt /tmp/verify_obs_b.txt

echo "==> selftrace: repro --quick selftrace (round trip exact, identities agree)"
./target/release/repro --quick selftrace > /tmp/verify_selftrace.txt
grep -q "round trip exact" /tmp/verify_selftrace.txt
grep -q "Self-trace verdict: agree" /tmp/verify_selftrace.txt

echo "==> tracetool: a generated trace merged with itself (tracetool merge M T T) doubles every events/shared count tracetool stats prints"
./target/release/repro --quick --traces 1 --days 0 gen-trace /tmp/verify_trace.bin 2> /dev/null
./target/release/tracetool merge /tmp/verify_trace_merged.bin /tmp/verify_trace.bin /tmp/verify_trace.bin 2> /dev/null
./target/release/tracetool stats /tmp/verify_trace.bin /tmp/verify_trace_merged.bin > /tmp/verify_tracetool_stats.txt
python3 - /tmp/verify_tracetool_stats.txt <<'PYEOF'
import re, sys
lines = [l for l in open(sys.argv[1]) if l.lstrip().startswith(("events:", "shared:"))]
assert len(lines) == 4, f"expected events and shared lines for T and M, got {lines}"
for t_line, m_line in zip(lines[:2], lines[2:]):
    t = [int(n) for n in re.findall(r"\d+", t_line)]
    m = [int(n) for n in re.findall(r"\d+", m_line)]
    assert sum(t) > 0, f"trace counts are all zero: {t_line}"
    assert m == [2 * n for n in t], f"merged counts {m} are not twice {t}"
PYEOF

echo "==> tracetool: a trace cut short by one byte fails tracetool stats with exit 1 and no usage line"
head -c -1 /tmp/verify_trace.bin > /tmp/verify_trace_cut.bin
set +e
./target/release/tracetool stats /tmp/verify_trace_cut.bin > /dev/null 2> /tmp/verify_trace_cut.txt
cut_status=$?
set -e
test "$cut_status" -eq 1 || { echo "a truncated trace must exit 1, got $cut_status"; exit 1; }
grep -q "verify_trace_cut.bin: trace I/O error" /tmp/verify_trace_cut.txt
if grep -q "usage:" /tmp/verify_trace_cut.txt; then echo "an input error must not print the usage line"; exit 1; fi

echo "==> cli: unknown subcommand exits 2 with usage"
set +e
./target/release/repro frobnicate > /dev/null 2> /tmp/verify_usage.txt
usage_status=$?
set -e
test "$usage_status" -eq 2 || { echo "unknown subcommand must exit 2, got $usage_status"; exit 1; }
grep -q "usage: repro" /tmp/verify_usage.txt
grep -q "selftrace" /tmp/verify_usage.txt

echo "==> cli: an unknown flag exits 2 with usage instead of being ignored"
set +e
./target/release/repro --quick --sanitise all > /tmp/verify_badflag_out.txt 2> /tmp/verify_badflag.txt
badflag_status=$?
set -e
test "$badflag_status" -eq 2 || { echo "unknown flag must exit 2, got $badflag_status"; exit 1; }
test ! -s /tmp/verify_badflag_out.txt
grep -q "unknown flag \`--sanitise\`" /tmp/verify_badflag.txt
grep -q "usage: repro" /tmp/verify_badflag.txt

echo "==> cli: an unwritable gen-trace path exits 2 without a panic"
set +e
./target/release/repro --quick --traces 1 --days 1 gen-trace /nonexistent-dir/x.bin > /dev/null 2> /tmp/verify_unwritable.txt
unwritable_status=$?
set -e
test "$unwritable_status" -eq 2 || { echo "unwritable gen-trace path must exit 2, got $unwritable_status"; exit 1; }
if grep -q "panicked" /tmp/verify_unwritable.txt; then echo "unwritable gen-trace path must not panic"; exit 1; fi

echo "==> fault matrix: repro --quick --sanitize --observe faults (clean, deterministic, nonzero, matches scripts/golden/quick_faults_stdout.txt)"
./target/release/repro --quick --sanitize --observe faults > /tmp/verify_faults_1.txt 2> /tmp/verify_faults_1.err
./target/release/repro --quick --sanitize --observe faults > /tmp/verify_faults_2.txt 2> /dev/null
cmp /tmp/verify_faults_1.txt /tmp/verify_faults_2.txt
cmp scripts/golden/quick_faults_stdout.txt /tmp/verify_faults_1.txt
# One merged verdict and one merged report cover the outage day and both
# partition days; only the lease-protocol heal sends lease_renew RPCs.
verdicts=$(grep -c '^sanitizer: ' /tmp/verify_faults_1.err || true)
test "$verdicts" -eq 1 || { echo "faults must print one sanitizer verdict, got $verdicts"; exit 1; }
grep -q '^sanitizer: clean' /tmp/verify_faults_1.err
grep -q '^    lease_renew ' /tmp/verify_faults_1.err || { echo "faults observer report misses the partition days"; exit 1; }
grep -q "recovery storm RPCs: [1-9]" /tmp/verify_faults_1.txt
grep -q "data lost at server crash: [1-9]" /tmp/verify_faults_1.txt
# Partition study: leases must recall state (TTL < cut) and beat the
# conservative baseline's per-file revalidation heal storm.
grep -q "lease-expiry recalls            [1-9]" /tmp/verify_faults_1.txt
python3 - /tmp/verify_faults_1.txt <<'PYEOF'
import re, sys
txt = open(sys.argv[1]).read()
m = re.search(r"heal-storm RPCs\s+(\d+)\s+(\d+)", txt)
assert m, "heal-storm row missing from faults report"
lease, conserv = int(m.group(1)), int(m.group(2))
assert lease < conserv, f"lease storm {lease} must beat conservative {conserv}"
PYEOF

echo "==> sanitizer at paper scale: repro --sanitize --traces 1 --days 0 table1 (one paper trace's 36 client and 4 server caches, deep-audited every simulated minute, must be clean)"
./target/release/repro --sanitize --traces 1 --days 0 table1 > /dev/null 2> /tmp/verify_paper_san.err
verdicts=$(grep -c '^sanitizer: ' /tmp/verify_paper_san.err || true)
test "$verdicts" -eq 1 || { echo "a paper-scale trace must print one sanitizer verdict, got $verdicts"; exit 1; }
grep -q '^sanitizer: clean' /tmp/verify_paper_san.err || { echo "paper-scale SpriteSan verdict not clean:"; cat /tmp/verify_paper_san.err; exit 1; }

echo "==> full scale: repro all stdout matches scripts/golden/full_all_stdout.sha256"
./target/release/repro all > /tmp/verify_full_all.txt 2> /dev/null
want=$(cut -d' ' -f1 scripts/golden/full_all_stdout.sha256)
got=$(sha256sum < /tmp/verify_full_all.txt | cut -d' ' -f1)
test "$got" = "$want" || { echo "full-campaign stdout drifted: sha256 $got, golden $want"; exit 1; }

echo "==> full scale: repro check (exits 0, 31/31 rows pass)"
./target/release/repro check > /tmp/verify_full_check.txt 2> /dev/null
grep -q "^Reproduction scorecard: 31/31 checks passed" /tmp/verify_full_check.txt

echo "verify: OK"
