#!/usr/bin/env bash
# Offline verification gate: tier-1 tests plus an end-to-end report run
# and a bench smoke test. No network access required — the workspace has
# no external dependencies.
#
# Usage: scripts/verify.sh
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> tier-1: cargo build --release"
cargo build --release --offline

echo "==> tier-1: cargo test -q"
cargo test -q --offline

echo "==> static: repro lint (determinism lints)"
./target/release/repro lint

echo "==> static: repro lint --audit (no stale suppressions)"
./target/release/repro lint --audit > /dev/null 2> /tmp/verify_audit.txt
grep -q ", 0 stale" /tmp/verify_audit.txt

echo "==> static: cargo clippy -D warnings"
cargo clippy --workspace --offline --all-targets -- -D warnings

echo "==> end-to-end: repro --quick all"
start_ms=$(date +%s%3N)
./target/release/repro --quick all > /tmp/verify_report.txt
end_ms=$(date +%s%3N)
echo "    report: $(wc -c < /tmp/verify_report.txt) bytes in $((end_ms - start_ms)) ms"

echo "==> golden: report byte-identical to scripts/golden/quick_all_stdout.txt"
cmp scripts/golden/quick_all_stdout.txt /tmp/verify_report.txt

echo "==> sanitizer: repro --quick --sanitize all (must be clean and byte-identical)"
./target/release/repro --quick --sanitize all > /tmp/verify_report_san.txt
cmp /tmp/verify_report.txt /tmp/verify_report_san.txt

echo "==> observer: repro --quick --observe all (report on stderr, stdout byte-identical)"
./target/release/repro --quick --observe all > /tmp/verify_report_obs.txt 2> /tmp/verify_obs_stderr.txt
cmp /tmp/verify_report.txt /tmp/verify_report_obs.txt
grep -q "obs.events.recorded" /tmp/verify_obs_stderr.txt

echo "==> trace workers: repro --quick --threads 1|auto all (byte-identical to the golden)"
./target/release/repro --quick --threads 1 all > /tmp/verify_report_t1.txt
cmp scripts/golden/quick_all_stdout.txt /tmp/verify_report_t1.txt
./target/release/repro --quick --threads auto all > /tmp/verify_report_tauto.txt
cmp scripts/golden/quick_all_stdout.txt /tmp/verify_report_tauto.txt

echo "==> fast path off: repro --quick --no-fastpath all (byte-identical to fast path on)"
./target/release/repro --quick --no-fastpath all > /tmp/verify_report_nofp.txt
cmp /tmp/verify_report.txt /tmp/verify_report_nofp.txt

echo "==> fast path off + sanitize/faults/observe (byte-identical across the matrix)"
./target/release/repro --quick --no-fastpath --sanitize all > /tmp/verify_report_nofp_san.txt
cmp /tmp/verify_report.txt /tmp/verify_report_nofp_san.txt
./target/release/repro --quick --sanitize faults > /tmp/verify_faults_fp.txt
./target/release/repro --quick --no-fastpath --sanitize faults > /tmp/verify_faults_nofp.txt
cmp /tmp/verify_faults_fp.txt /tmp/verify_faults_nofp.txt
./target/release/repro --quick --no-fastpath --observe all > /tmp/verify_report_nofp_obs.txt 2> /tmp/verify_nofp_obs_stderr.txt
cmp /tmp/verify_report.txt /tmp/verify_report_nofp_obs.txt
# The obs report is deterministic except the wall-clock timing line.
grep -v "study complete in" /tmp/verify_obs_stderr.txt > /tmp/verify_obs_a.txt
grep -v "study complete in" /tmp/verify_nofp_obs_stderr.txt > /tmp/verify_obs_b.txt
cmp /tmp/verify_obs_a.txt /tmp/verify_obs_b.txt

echo "==> selftrace: repro --quick selftrace (round trip exact, identities agree)"
./target/release/repro --quick selftrace > /tmp/verify_selftrace.txt
grep -q "round trip exact" /tmp/verify_selftrace.txt
grep -q "Self-trace verdict: agree" /tmp/verify_selftrace.txt

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

echo "==> fault matrix: repro --quick --sanitize faults (clean, deterministic, nonzero)"
./target/release/repro --quick --sanitize faults > /tmp/verify_faults_1.txt
./target/release/repro --quick --sanitize faults > /tmp/verify_faults_2.txt
cmp /tmp/verify_faults_1.txt /tmp/verify_faults_2.txt
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

echo "==> bench smoke: repro bench"
tmpdir=$(mktemp -d)
(cd "$tmpdir" && "$OLDPWD"/target/release/repro bench > /dev/null)
test -s "$tmpdir/BENCH_0001.json"
grep -q '"end_to_end"' "$tmpdir/BENCH_0001.json"
test -s "$tmpdir/BENCH_0002.json"
grep -q '"end_to_end_obs_off_secs"' "$tmpdir/BENCH_0002.json"
grep -q '"report_bytes_identical": true' "$tmpdir/BENCH_0002.json"
test -s "$tmpdir/BENCH_0004.json"
grep -q '"records_identical_on_vs_off": true' "$tmpdir/BENCH_0004.json"
python3 - "$tmpdir/BENCH_0004.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
# The calm summaries must carry most of the open/close traffic.
hit = doc["fastpath_hit_rate_pct"]
assert hit > 50.0, f"fast-path hit rate {hit}% too low"
# The open/close decision path — the code the fast path replaces —
# must be at least 1.3x faster. (The full-campaign wall ratio is
# diluted by data-plane block work that is byte-identical on both
# sides by design, so it is reported but not gated.)
dec = doc["open_close_decision_speedup_on_vs_off"]
assert dec >= 1.3, f"open/close decision speedup {dec} < 1.3"
EOF
rm -rf "$tmpdir"

echo "==> full scale: repro all stdout matches scripts/golden/full_all_stdout.sha256"
./target/release/repro all > /tmp/verify_full_all.txt 2> /dev/null
want=$(cut -d' ' -f1 scripts/golden/full_all_stdout.sha256)
got=$(sha256sum < /tmp/verify_full_all.txt | cut -d' ' -f1)
test "$got" = "$want" || { echo "full-campaign stdout drifted: sha256 $got, golden $want"; exit 1; }

echo "==> full scale: repro check (exits 0, 31/31 rows pass)"
./target/release/repro check > /tmp/verify_full_check.txt 2> /dev/null
grep -q "^Reproduction scorecard: 31/31 checks passed" /tmp/verify_full_check.txt

echo "verify: OK"
