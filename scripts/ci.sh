#!/usr/bin/env bash
# CI entry point: the exact tier-1 verify line, plus a CLI smoke run.
#
#   scripts/ci.sh            # configure + build + ctest + CLI smoke
#
# Keep the tier-1 line below byte-identical to ROADMAP.md.
set -euo pipefail

cd "$(dirname "$0")/.."

# --- tier-1 verify ----------------------------------------------------------
cmake -B build -S . && cmake --build build -j && (cd build && ctest --output-on-failure -j)

# --- determinism lint -------------------------------------------------------
# prestage-lint scans the configured roots (src/bench/tools/examples/
# tests) for determinism-rule violations; any unsuppressed error finding
# exits 1 and fails CI here. Then a deliberately seeded violation in a
# scratch file proves the gate actually bites: the right rule ID must be
# reported and the exit code must be non-zero.
./build/tools/lint/prestage-lint --json build/ci-lint.json
cat > build/ci-lint-seed.cpp <<'EOF'
#include <ctime>
long stamp() { return time(nullptr); }
EOF
if ./build/tools/lint/prestage-lint build/ci-lint-seed.cpp \
    > build/ci-lint-seed.txt 2>&1; then
  echo "lint: seeded wallclock violation was NOT caught" >&2
  exit 1
fi
grep -q "prestage-wallclock" build/ci-lint-seed.txt
echo "lint: tree is clean and the seeded violation trips the gate"

# clang-tidy agrees with the curated root .clang-tidy when available;
# the container image does not ship it, so the stage is gated rather
# than required (compile_commands.json is exported by default).
if command -v clang-tidy > /dev/null; then
  clang-tidy -p build --quiet src/common/*.cpp src/campaign/*.cpp
  echo "clang-tidy: src/common and src/campaign are clean"
fi

# --- CLI smoke --------------------------------------------------------------
# The ctest run above already exercises cli_test; this is the human-shaped
# sanity check that the shipped binary works from a clean shell.
./build/src/cli/prestage run --preset clgp-l0-pb16 --bench eon --instrs 5000
./build/src/cli/prestage suite --preset clgp-l0-pb16 --instrs 2000 --json build/ci-suite.json
if command -v python3 > /dev/null; then
  python3 -m json.tool build/ci-suite.json > /dev/null
fi

# --- trace round-trip smoke -------------------------------------------------
# Record a synthetic run, replay the file, and require bit-identical
# headline statistics; then drive the checked-in ChampSim fixture through
# the CLGP preset end to end.
./build/src/cli/prestage trace record --preset clgp-l0-pb16 --bench eon \
  --instrs 3000 --out build/ci-eon.pstr --json build/ci-record.json
./build/src/cli/prestage trace info --trace build/ci-eon.pstr
./build/src/cli/prestage trace replay --preset clgp-l0-pb16 --instrs 3000 \
  --trace build/ci-eon.pstr --json build/ci-replay.json
if command -v python3 > /dev/null; then
  python3 - <<'EOF'
import json
rec = json.load(open("build/ci-record.json"))["result"]
rep = json.load(open("build/ci-replay.json"))["result"]
assert rec["ipc"] == rep["ipc"], (rec["ipc"], rep["ipc"])
assert rec["cycles"] == rep["cycles"], (rec["cycles"], rep["cycles"])
assert rec["fetch_sources"] == rep["fetch_sources"]
print("trace round-trip: identical IPC, cycles and fetch sources")
EOF
fi
./build/src/cli/prestage trace replay --preset clgp --instrs 1500 \
  --trace tests/data/fixture.champsim.trace

# --- campaign end-to-end ----------------------------------------------------
# Run the smoke grid, kill-and-resume it (drop the second half of the
# store, as a killed run would), require byte-identical healing without
# recomputing surviving points, self-compare for zero regressions, and
# emit + parse the figure report.
CAMPAIGN="--name smoke --instrs 1200 --store build/ci-smoke.jsonl"
# Drop the previous generation's sidecar with its store: perf records
# are append-only and would otherwise double-count rerun generations.
rm -f build/ci-smoke.jsonl build/ci-smoke.jsonl.perf
./build/src/cli/prestage campaign run $CAMPAIGN -j 2 \
  --json build/ci-campaign-run.json
cp build/ci-smoke.jsonl build/ci-smoke-full.jsonl
head -n 4 build/ci-smoke-full.jsonl > build/ci-smoke.jsonl
./build/src/cli/prestage campaign resume $CAMPAIGN -j 2 \
  --json build/ci-campaign-resume.json
cmp build/ci-smoke.jsonl build/ci-smoke-full.jsonl
echo "campaign: kill-and-resume reproduced the store byte-identically"
if command -v python3 > /dev/null; then
  python3 - <<'EOF'
import json
resume = json.load(open("build/ci-campaign-resume.json"))
assert resume["reused"] == 4, resume
assert resume["executed"] == 4, resume
print("campaign: resume reused 4 surviving points, recomputed 4")
EOF
fi
# Double-run byte identity: the same grid at a different worker count
# must produce the identical store — the dynamic complement to the
# prestage-lint determinism rules above.
rm -f build/ci-smoke-j8.jsonl build/ci-smoke-j8.jsonl.perf
./build/src/cli/prestage campaign run --name smoke --instrs 1200 \
  --store build/ci-smoke-j8.jsonl -j 8
cmp build/ci-smoke-full.jsonl build/ci-smoke-j8.jsonl
echo "campaign: smoke store bytes identical for -j 2 and -j 8"
./build/src/cli/prestage campaign compare \
  --baseline build/ci-smoke-full.jsonl --store build/ci-smoke.jsonl \
  --threshold 0.5
./build/src/cli/prestage campaign status $CAMPAIGN
./build/src/cli/prestage campaign report $CAMPAIGN --out BENCH_smoke.json

# The fig5 headline grid at a small budget: the full 1296-point campaign
# exercises every preset at both nodes and produces the BENCH_fig5.json
# perf-trajectory artifact.
rm -f build/ci-fig5.jsonl build/ci-fig5.jsonl.perf
./build/src/cli/prestage campaign run --name fig5 --instrs 1000 \
  --store build/ci-fig5.jsonl -j 0 --json build/ci-campaign-fig5.json
./build/src/cli/prestage campaign report --name fig5 --instrs 1000 \
  --store build/ci-fig5.jsonl --out BENCH_fig5.json
# fig5 double run: the full headline grid is also byte-stable across
# worker counts, not just the 8-point smoke.
rm -f build/ci-fig5-j2.jsonl build/ci-fig5-j2.jsonl.perf
./build/src/cli/prestage campaign run --name fig5 --instrs 1000 \
  --store build/ci-fig5-j2.jsonl -j 2 > /dev/null
cmp build/ci-fig5.jsonl build/ci-fig5-j2.jsonl
echo "campaign: fig5 store bytes identical for -j 0 and -j 2"
if command -v python3 > /dev/null; then
  python3 - <<'EOF'
import json
for name in ("BENCH_smoke.json", "BENCH_fig5.json"):
    doc = json.load(open(name))
    assert doc["schema"] == "prestage-campaign-report-v1", name
    assert doc["series"], name
    for series in doc["series"]:
        assert all(v > 0 for v in series["hmean_ipc"]), (name, series)
print("campaign: BENCH_smoke.json and BENCH_fig5.json parse and are sane")
EOF
fi

# --- chaos: fault injection + crash consistency ------------------------------
# Every compiled-in fault site gets a crash drill (kill at the site →
# disarmed resume → cmp against a never-faulted reference), the seeded
# point.execute fault must quarantine exactly one point (with the right
# error class) deterministically at -j 1 and -j 8, and the fault-free
# paranoia modes (--retries, --durable) must not change a stored byte.
scripts/chaos.sh ./build/src/cli/prestage

# --- prefetcher-family grid --------------------------------------------------
# The open-registry grid: sequential/stream/MANA/program-map families
# next to FDP/CLGP, proving every registered scheme runs end to end
# through the campaign pipeline. Coverage is checked against `prestage
# list` (not a hand-kept list) so a newly registered scheme that is
# missing from the family campaign fails CI here.
rm -f build/ci-family.jsonl build/ci-family.jsonl.perf
./build/src/cli/prestage campaign run --name family --instrs 800 \
  --store build/ci-family.jsonl -j 0 --json build/ci-campaign-family.json
./build/src/cli/prestage campaign report --name family --instrs 800 \
  --store build/ci-family.jsonl --out BENCH_family.json
if command -v python3 > /dev/null; then
  ./build/src/cli/prestage list |
    awk '/^prefetchers/{f=1;next}/^[a-z]/{f=0}f{print $1}' \
    > build/ci-registered.txt
  python3 - <<'EOF'
import json
registered = set(open("build/ci-registered.txt").read().split())
assert registered, "prestage list yielded no prefetchers"
doc = json.load(open("BENCH_family.json"))
covered = {s["preset"].split("@")[0].split("-l0")[0].split("-pb")[0]
           for s in doc["series"]}
missing = registered - covered - {"base"}
assert not missing, f"family campaign misses registered schemes: {missing}"
for series in doc["series"]:
    assert "storage_bits" in series, series
    if not series["preset"].startswith("base"):
        assert series["storage_bits"] > 0, series
print("family: every registered prefetcher is ablated, with storage bits")
EOF
fi

# --- perf smoke + regression gate -------------------------------------------
# Host-throughput telemetry: run one short campaign with --jobs 0 (all
# cores) and emit BENCH_perf_ci.json (per-preset minstr_per_sec + total
# host seconds) so every CI run appends a point to the perf trajectory.
# Record-only: nothing gates on these numbers — they exist to make
# kernel slowdowns visible over time. (BENCH_perf.json itself is the
# *committed* baseline the gate below compares against; don't clobber
# it here.)
rm -f build/ci-perf.jsonl build/ci-perf.jsonl.perf
./build/src/cli/prestage campaign run --name smoke --instrs 2000 \
  --store build/ci-perf.jsonl -j 0 --json build/ci-campaign-perf.json
./build/src/cli/prestage campaign perf --name smoke --instrs 2000 \
  --store build/ci-perf.jsonl --out BENCH_perf_ci.json
if command -v python3 > /dev/null; then
  python3 - <<'EOF'
import json
doc = json.load(open("BENCH_perf_ci.json"))
assert doc["schema"] == "prestage-campaign-perf-v1", doc
assert doc["points"] == 8, doc
assert doc["dropped_lines"] == 0, doc  # a fresh sidecar has no torn lines
assert doc["host_seconds"] > 0 and doc["minstr_per_sec"] > 0, doc
assert doc["per_config"], doc
assert all(c["minstr_per_sec"] > 0 for c in doc["per_config"]), doc
print("perf smoke: BENCH_perf_ci.json records host throughput (record-only)")
EOF
fi
# Standing host-perf regression gate: re-measure the smoke grid fresh
# (--min-host-seconds repeats each point until the host clock smooths
# out) and compare against the committed BENCH_perf.json baseline.
# Warn-only in CI — shared runners are too noisy to make wall clock a
# hard failure — but exit 3 is printed loudly so a real kernel slowdown
# is visible in the log; any *other* nonzero exit (bad baseline, grid
# mismatch) is a genuine failure. Refresh the baseline on a quiet host:
#   ./build/src/cli/prestage campaign perf --name smoke --instrs 2000 \
#     --min-host-seconds 2 -j 1 --out BENCH_perf.json
perf_gate_rc=0
./build/src/cli/prestage campaign perf compare --baseline BENCH_perf.json \
  --instrs 2000 --min-host-seconds 2 --slack 30 -j 1 || perf_gate_rc=$?
if [ "$perf_gate_rc" -eq 3 ]; then
  echo "perf gate: WARNING — throughput regressed >30% vs committed" \
    "baseline (warn-only in CI; investigate before merging)" >&2
elif [ "$perf_gate_rc" -ne 0 ]; then
  echo "perf gate: compare failed (exit $perf_gate_rc)" >&2
  exit "$perf_gate_rc"
else
  echo "perf gate: throughput within 30% slack of committed baseline"
fi

# --- sampled campaign --------------------------------------------------------
# The phase-sampled twin of the smoke grid. Three gates: (1) the sampled
# store is byte-identical across worker counts, like every other store;
# (2) every reconstructed IPC lands within its own reported error bar of
# the paired full-run point; (3) the perf sidecar's effective speedup
# (budget over simulated instructions — the deterministic lower bound)
# is at least 5x. The budget matches the knobs pinned in the registry:
# smaller budgets starve the clusterer and the fidelity gate gets noisy.
SAMPLE_INSTRS=400000
./build/src/cli/prestage sample profile --bench eon --instrs $SAMPLE_INSTRS \
  --interval 5000 > /dev/null
./build/src/cli/prestage sample plan --bench eon --instrs $SAMPLE_INSTRS \
  --interval 5000 --max-k 4 --warmup 3 --out build/ci-plan.psck \
  --json build/ci-sample-plan.json
./build/src/cli/prestage sample run --preset clgp-l0 --bench eon \
  --instrs $SAMPLE_INSTRS --plan build/ci-plan.psck \
  --json build/ci-sample-run.json
rm -f build/ci-sampled-base.jsonl build/ci-sampled-base.jsonl.perf
./build/src/cli/prestage campaign run --name smoke --instrs $SAMPLE_INSTRS \
  --store build/ci-sampled-base.jsonl -j 0 > /dev/null
rm -f build/ci-sampled.jsonl build/ci-sampled.jsonl.perf
./build/src/cli/prestage campaign run --name smoke-sampled \
  --instrs $SAMPLE_INSTRS --store build/ci-sampled.jsonl -j 0 > /dev/null
rm -f build/ci-sampled-j2.jsonl build/ci-sampled-j2.jsonl.perf
./build/src/cli/prestage campaign run --name smoke-sampled \
  --instrs $SAMPLE_INSTRS --store build/ci-sampled-j2.jsonl -j 2 > /dev/null
cmp build/ci-sampled.jsonl build/ci-sampled-j2.jsonl
echo "sampled: store bytes identical for -j 0 and -j 2"
./build/src/cli/prestage campaign perf --name smoke-sampled \
  --instrs $SAMPLE_INSTRS --store build/ci-sampled.jsonl \
  --out BENCH_perf_sampled.json
if command -v python3 > /dev/null; then
  python3 - <<'EOF'
import json

def load(path):
    points = {}
    for line in open(path):
        p = json.loads(line)
        points[(p["preset"], p["node"], p["l1i_size"], p["benchmark"])] = p
    return points

full = load("build/ci-sampled-base.jsonl")
sampled = load("build/ci-sampled.jsonl")
assert len(full) == len(sampled) == 8, (len(full), len(sampled))
for key, s in sampled.items():
    f_ipc = full[key]["result"]["ipc"]
    blk = s["result"]["sampling"]
    err = abs(s["result"]["ipc"] - f_ipc)
    assert err <= blk["ipc_error"], (key, err, blk["ipc_error"])
    # Per-point floor; the >= 5x gate is on the grid aggregate below,
    # where the sidecar's budget/simulated ratio is deterministic.
    assert blk["simulated_instructions"] * 4.5 <= s["instructions"], (key, blk)
print("sampled: all 8 reconstructions inside their error bars")

perf = json.load(open("BENCH_perf_sampled.json"))
assert perf["schema"] == "prestage-campaign-perf-v1", perf
assert perf["sampled_points"] == 8, perf
assert perf["effective_speedup"] >= 5.0, perf
print("sampled: perf sidecar reports effective speedup "
      f"{perf['effective_speedup']:.1f}x (>= 5x gate)")
EOF
fi

# --- sanitizer smoke ---------------------------------------------------------
# ASan+UBSan build of the CLI, then one run per *registered* prefetcher
# (with an L0, matching the family grid) — the preset list is derived
# from `prestage list`, so a newly registered scheme is exercised under
# sanitizers automatically.
cmake --preset asan > /dev/null
cmake --build --preset asan -j --target prestage_cli
PREFETCHERS=$(./build-asan/src/cli/prestage list |
  awk '/^prefetchers/{f=1;next}/^[a-z]/{f=0}f{print $1}')
test -n "$PREFETCHERS"
for p in $PREFETCHERS; do
  if [ "$p" = "base" ]; then preset="base-l0"; else preset="$p-l0"; fi
  echo "sanitizer   : prestage run --preset $preset"
  ./build-asan/src/cli/prestage run --preset "$preset" --bench eon \
    --instrs 1500 > /dev/null
done
echo "sanitizer: every registered prefetcher ran clean under ASan+UBSan"

# --- race-detector smoke -----------------------------------------------------
# ThreadSanitizer build of the multi-worker surfaces: the campaign
# engine's run/resume at -j 8 (ordered store flush + perf-sidecar
# appends under contention), the run_parallel suite path, the
# work-stealing scheduler's own regression tests, and the process-wide
# single-flight caches (synthetic workloads, sampling plans) that every
# worker touches from Cpu::Cpu. TSan exits non-zero on any report, so
# `set -e` is the gate.
cmake --preset tsan > /dev/null
cmake --build --preset tsan -j \
  --target prestage_cli campaign_test fault_test memsys_stress_test \
  common_test cpu_test workload_test sample_test
rm -f build-tsan/ci-smoke.jsonl build-tsan/ci-smoke.jsonl.perf
./build-tsan/src/cli/prestage campaign run --name smoke --instrs 1200 \
  --store build-tsan/ci-smoke.jsonl -j 8 > /dev/null
cp build-tsan/ci-smoke.jsonl build-tsan/ci-smoke-full.jsonl
head -n 4 build-tsan/ci-smoke-full.jsonl > build-tsan/ci-smoke.jsonl
./build-tsan/src/cli/prestage campaign resume --name smoke --instrs 1200 \
  --store build-tsan/ci-smoke.jsonl -j 8 > /dev/null
cmp build-tsan/ci-smoke.jsonl build-tsan/ci-smoke-full.jsonl
./build-tsan/src/cli/prestage suite --preset clgp-l0-pb16 --instrs 2000 \
  -j 8 > /dev/null
./build-tsan/tests/campaign_test \
  --gtest_filter='ParallelFor.*:CampaignEngine.*' > /dev/null
./build-tsan/tests/fault_test > /dev/null
./build-tsan/tests/memsys_stress_test > /dev/null
./build-tsan/tests/common_test --gtest_filter='SingleFlight.*' > /dev/null
./build-tsan/tests/cpu_test --gtest_filter='SharedWorkload.*' > /dev/null
./build-tsan/tests/workload_test \
  --gtest_filter='SyntheticWorkload.*' > /dev/null
./build-tsan/tests/sample_test --gtest_filter='PlanCache.*' > /dev/null
echo "tsan: -j 8 run/resume, suite, scheduler, fault-layer and cache" \
  "tests ran race-free"

echo "ci: OK"
