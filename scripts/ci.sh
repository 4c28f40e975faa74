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
# `sweep` runs the same engine over a one-preset grid: its HMEAN per
# size must equal the smoke report's clgp-l0 series exactly.
./build/src/cli/prestage sweep --preset clgp-l0 --bench eon,gzip \
  --sizes 1K,4K --instrs 1200 -j 2 --json build/ci-sweep.json
if command -v python3 > /dev/null; then
  python3 - <<'EOF'
import json
sweep = [p["hmean_ipc"] for p in json.load(open("build/ci-sweep.json"))["points"]]
smoke = next(s["hmean_ipc"] for s in json.load(open("BENCH_smoke.json"))["series"]
             if s["preset"] == "clgp-l0")
assert sweep == smoke, (sweep, smoke)
print("sweep: clgp-l0 HMEAN per size equals the smoke campaign report")
EOF
fi

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
# fig5's claims are report data: four speedups per node plus the budget
# claim, each recomputed here from the same document's series.
if command -v python3 > /dev/null; then
  python3 - <<'EOF'
import json
doc = json.load(open("BENCH_fig5.json"))
claims = doc["claims"]
assert len(claims) == 9, len(claims)

def hmean(cell):
    series = next(s for s in doc["series"]
                  if s["preset"] == cell["preset"] and s["node"] == cell["node"])
    return series["hmean_ipc"][doc["l1_sizes"].index(cell["l1i_size"])]

for c in claims:
    assert c["measure"] == "hmean_speedup_pct", c
    want = (hmean(c["first"]) / hmean(c["second"]) - 1.0) * 100.0
    assert abs(c["measured"] - want) <= 1e-6, (c, want)
judged = [c for c in claims if "holds" in c]
assert len(judged) == 1, judged
assert judged[0]["holds"] == (judged[0]["measured"] >= 0), judged
print("claims: fig5's 9 claims match the speedups of their series cells")
EOF
fi
# fig6's claim counts the benchmarks on which CLGP+L0+PB:16 is at least
# FDP+L0+PB:16; recount it from the document's per-benchmark groups.
rm -f build/ci-fig6.jsonl build/ci-fig6.jsonl.perf
./build/src/cli/prestage campaign run --name fig6 --instrs 1000 \
  --store build/ci-fig6.jsonl -j 0 > /dev/null
./build/src/cli/prestage campaign report --name fig6 --instrs 1000 \
  --store build/ci-fig6.jsonl --out BENCH_fig6.json
if command -v python3 > /dev/null; then
  python3 - <<'EOF'
import json
doc = json.load(open("BENCH_fig6.json"))
assert len(doc["claims"]) == 1, doc["claims"]
claim = doc["claims"][0]
assert claim["measure"] == "benchmarks_at_least", claim

def ipc(cell):
    group = next(g for g in doc["groups"]
                 if (g["preset"], g["node"], g["l1i_size"]) ==
                 (cell["preset"], cell["node"], cell["l1i_size"]))
    return group["ipc"]

first, second = ipc(claim["first"]), ipc(claim["second"])
wins = sum(first[b] >= second[b] for b in doc["benchmarks"])
assert claim["measured"] == wins, (claim, wins)
assert len(doc["benchmarks"]) == 12, doc["benchmarks"]
print(f"claims: fig6's win count {wins} of 12 matches its groups")
EOF
fi
# The CLGP ablation: four variants registered in its own process, eight
# rows from one in-memory campaign grid.
PRESTAGE_INSTRS=2000 ./build/bench/ablation_clgp > build/ci-ablation.txt
cat build/ci-ablation.txt
test "$(sed -n '/^---/,$p' build/ci-ablation.txt | grep -c '%')" -eq 8
echo "ablation: eight variant rows"

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

# --- sampled campaign --------------------------------------------------------
# The phase-sampled twin of the smoke grid. Three gates: (1) the sampled
# store is byte-identical across worker counts, like every other store;
# (2) every reconstructed IPC lands within its own reported error bar of
# the paired full-run point; (3) the report's effective speedup (budget
# over simulated instructions, read from the store — the deterministic
# lower bound) is at least 5x. The budget matches the knobs pinned in the
# registry: smaller budgets starve the clusterer and the fidelity gate
# gets noisy.
SAMPLE_INSTRS=400000
./build/src/cli/prestage sample profile --bench eon --instrs $SAMPLE_INSTRS \
  --interval 5000 > /dev/null
./build/src/cli/prestage sample plan --bench eon --instrs $SAMPLE_INSTRS \
  --interval 5000 --max-k 4 --warmup 3 --out build/ci-plan.psck \
  --json build/ci-sample-plan.json
./build/src/cli/prestage sample run --preset clgp-l0 --bench eon \
  --instrs $SAMPLE_INSTRS --plan build/ci-plan.psck \
  --json build/ci-sample-run.json
# The checkpoint stands only for the plan it holds: a sampling knob or a
# budget it was not built with is a usage error (exit 2) that names the
# flag, not a run of the checkpoint's plan under the command's labels.
for refused in "--instrs $SAMPLE_INSTRS --interval 999" "--instrs 200000"; do
  rc=0
  ./build/src/cli/prestage sample run --preset clgp-l0 --bench eon \
    $refused --plan build/ci-plan.psck > /dev/null \
    2> build/ci-plan-refused.err || rc=$?
  if [ "$rc" -ne 2 ] ||
      ! grep -q "does not match checkpoint" build/ci-plan-refused.err; then
    echo "sampled: sample run --plan with $refused exited $rc, not 2" >&2
    cat build/ci-plan-refused.err >&2
    exit 1
  fi
done
echo "sampled: the checkpoint refuses a knob and a budget it was not built with"
# The checkpointed run from a fresh plan with the checkpoint's knobs: its
# slice snapshots come from the profile's waypoints, the checkpoint's from
# a walk from instruction 0, and the results must not tell them apart.
./build/src/cli/prestage sample run --preset clgp-l0 --bench eon \
  --instrs $SAMPLE_INSTRS --interval 5000 --max-k 4 --warmup 3 \
  --json build/ci-sample-run-fresh.json
if command -v python3 > /dev/null; then
  python3 - <<'EOF'
import json

def result(path):
    r = json.load(open(path))["result"]
    for host in ("host_seconds", "minstr_per_sec"):
        del r[host]
    return r

fresh = result("build/ci-sample-run-fresh.json")
checkpointed = result("build/ci-sample-run.json")
assert fresh == checkpointed, (fresh, checkpointed)
print("sampled: fresh-plan and checkpoint runs give the same result")
EOF
fi
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
./build/src/cli/prestage campaign report --name smoke-sampled \
  --instrs $SAMPLE_INSTRS --store build/ci-sampled.jsonl \
  --out BENCH_smoke-sampled.json > /dev/null
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
    # Per-point floor; the >= 5x gate is on the grid aggregate below.
    assert blk["simulated_instructions"] * 4.5 <= s["instructions"], (key, blk)
print("sampled: all 8 reconstructions inside their error bars")

blk = json.load(open("BENCH_smoke-sampled.json"))["sampling"]
assert blk["points"] == 8, blk
assert blk["effective_speedup"] >= 5.0, blk
print("sampled: report gives effective speedup "
      f"{blk['effective_speedup']:.1f}x (>= 5x gate)")
EOF
fi

# --- Debug: the cycle-skip contract with asserts live ------------------------
# Every other stage builds with NDEBUG, so the contract in Cpu::try_skip
# runs only here: one check, over the same visit of all five units'
# idle_plan (back-end, driver, fetch engine, memory system and
# prefetcher), that none reports work inside a skipped span. It runs
# under the cycle-skip equivalence grid over every preset (with its
# exact skipped-cycle pins), the buffered-scheme pin and the prefetcher
# unit tests, in a Debug build of just those two test binaries and the
# CLI.
cmake --preset debug > /dev/null
cmake --build --preset debug -j \
  --target equivalence_test prefetch_test prestage_cli
./build-debug/tests/equivalence_test --gtest_brief=1 \
  --gtest_filter='CycleSkipEquivalence.*'
SCHEMES='Fdp.*:NextLine.*:Stream.*:Mana.*:ProgramMap.*'
./build-debug/tests/prefetch_test --gtest_brief=1 \
  --gtest_filter="BufferedSchemes.*:$SCHEMES"
echo "debug: skip-contract asserts hold for every preset and buffered scheme"
# Build-type identity: the -O0 Debug CLI must write the same store bytes
# as the -O3 + LTO Release CLI did for each grid the stages above ran,
# and the same trace file as the round-trip smoke recorded.
for grid in smoke:1200:ci-smoke-full family:800:ci-family fig5:1000:ci-fig5 \
    smoke-sampled:$SAMPLE_INSTRS:ci-sampled; do
  IFS=: read -r name instrs release <<< "$grid"
  rm -f "build-debug/$release.jsonl" "build-debug/$release.jsonl.perf"
  ./build-debug/src/cli/prestage campaign run --name "$name" \
    --instrs "$instrs" --store "build-debug/$release.jsonl" -j 0 > /dev/null
  cmp "build/$release.jsonl" "build-debug/$release.jsonl"
done
./build-debug/src/cli/prestage trace record --preset clgp-l0-pb16 --bench eon \
  --instrs 3000 --out build-debug/ci-eon.pstr > /dev/null
cmp build/ci-eon.pstr build-debug/ci-eon.pstr
echo "debug: smoke, family, fig5 and smoke-sampled stores and the eon" \
  "recording match Release"
# Plan identity at perfbench's interval length: a BBV signature sums
# integer weights per block and projects them once per interval, exact
# in any order, so the -O0 and -O3 + LTO CLIs must save the same plan.
for bench in gcc twolf; do
  for tree in build build-debug; do
    "./$tree/src/cli/prestage" sample plan --bench "$bench" --instrs 4000000 \
      --interval 50000 --max-k 2 --out "$tree/ci-plan-$bench.psck" > /dev/null
  done
  cmp "build/ci-plan-$bench.psck" "build-debug/ci-plan-$bench.psck"
done
echo "debug: gcc and twolf plans at 4M instructions match Release"

# --- perfbench builds against the tree ---------------------------------------
# perfbench/ times the kernel with a shadow machine that calls the units'
# constructors and per-cycle methods itself, so a kernel change can break
# the benchmark without breaking any test. Build it as perfbench/run.py
# does (Release + LTO), and require the shadow to reproduce Cpu::run on
# every one of its 144 points (18 presets x 2 nodes x 2 L1 sizes x 2
# benchmarks).
cmake -S perfbench -B build-perfbench -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build build-perfbench -j --target perfbench_driver shadow_check
./build-perfbench/shadow_check | tee build-perfbench/shadow_check.txt
grep -q "^shadow_check: 144/144 points match" build-perfbench/shadow_check.txt

# --- sanitizer smoke ---------------------------------------------------------
# ASan+UBSan build of the CLI, then one run per *registered* prefetcher
# (with an L0, matching the family grid) — the preset list is derived
# from `prestage list`, so a newly registered scheme is exercised under
# sanitizers automatically — a trace record and its replay, two sampled
# runs, hostile copies of the binary inputs, hostile values for every
# flag, and a store with an out-of-range count.
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
echo "sanitizer   : prestage trace record, then trace replay"
./build-asan/src/cli/prestage trace record --preset clgp-l0-pb16 --bench eon \
  --instrs 3000 --out build-asan/ci-eon.pstr > /dev/null
./build-asan/src/cli/prestage trace replay --preset clgp-l0-pb16 \
  --instrs 3000 --trace build-asan/ci-eon.pstr > /dev/null
cmp build/ci-eon.pstr build-asan/ci-eon.pstr
echo "sanitizer: trace record and replay ran clean"
# Sampled simulation under the same sanitizers: one fresh plan (span-walk
# profile, clustering, snapshot walk, slices from the snapshots) and one
# run from the PSCK checkpoint the sampled stage above wrote.
echo "sanitizer   : prestage sample run (fresh plan, then --plan)"
./build-asan/src/cli/prestage sample run --preset clgp-l0 --bench eon \
  --instrs $SAMPLE_INSTRS --interval 5000 > /dev/null
./build-asan/src/cli/prestage sample run --preset clgp-l0 --bench eon \
  --instrs $SAMPLE_INSTRS --plan build/ci-plan.psck > /dev/null
echo "sanitizer: fresh and checkpointed sampled runs ran clean"
# Hostile bytes: truncated and byte-flipped copies of the eon recording,
# the PSCK plan and the ChampSim fixture. `trace info` must refuse each
# recording or trace with a typed error from its reader, `sample run
# --plan` must take the fresh-plan fallback for each plan, and no run
# may print a sanitizer report.
echo "sanitizer   : trace info and sample run --plan on hostile bytes"
HOSTILE=build-asan/hostile
rm -rf "$HOSTILE" && mkdir -p "$HOSTILE"
cut_copies() {  # SRC NAME BYTES...: one copy cut to each length
  local src=$1 name=$2
  shift 2
  for n in "$@"; do head -c "$n" "$src" > "$HOSTILE/$name.cut$n"; done
}
flip_copy() {  # SRC NAME OFFSET TEXT: one copy with TEXT written at OFFSET
  cp "$1" "$HOSTILE/$2.flip$3"
  printf '%b' "$4" |
    dd of="$HOSTILE/$2.flip$3" bs=1 seek="$3" conv=notrunc status=none
}
last_byte() { echo $(($(wc -c < "$1") - 1)); }
PSTR=build/ci-eon.pstr
PSCK=build/ci-plan.psck
CHAMPSIM=tests/data/fixture.champsim.trace
# PSTR: magic, version, record-count top byte, name length, first op,
# last flags (the final record no longer ends a stream).
cut_copies "$PSTR" pstr 3 20 36 200 "$(last_byte "$PSTR")"
flip_copy "$PSTR" pstr 0 'X'
flip_copy "$PSTR" pstr 4 '\x63'
flip_copy "$PSTR" pstr 15 '\xff'
flip_copy "$PSTR" pstr 32 '\xff'
flip_copy "$PSTR" pstr 60 '\xff'
flip_copy "$PSTR" pstr "$(last_byte "$PSTR")" '\x00'
# ChampSim: cut mid-record; a PSTR magic over the first record.
cut_copies "$CHAMPSIM" champsim 13 5792 "$(last_byte "$CHAMPSIM")"
flip_copy "$CHAMPSIM" champsim 0 'PSTR'
# PSCK: magic, version, slice-count top byte, a nonzero state count.
cut_copies "$PSCK" psck 2 40 79 "$(last_byte "$PSCK")"
flip_copy "$PSCK" psck 0 'X'
flip_copy "$PSCK" psck 4 '\x63'
flip_copy "$PSCK" psck 78 '\xff'
flip_copy "$PSCK" psck "$(last_byte "$PSCK")" '\x01'
hostile_fail() {
  echo "sanitizer: $1" >&2
  cat "$2" >&2
  exit 1
}
refuse_info() {  # FILE [ARGS...]: `trace info` must fail typed, cleanly
  local f=$1
  shift
  if ./build-asan/src/cli/prestage trace info --trace "$f" "$@" \
      > /dev/null 2> "$f.err"; then
    hostile_fail "trace info accepted $f" "$f.err"
  fi
  if grep -qE "Sanitizer|runtime error" "$f.err"; then
    hostile_fail "sanitizer report on $f" "$f.err"
  fi
  grep -qE "^prestage: (trace file|champsim trace) '" "$f.err" ||
    hostile_fail "no typed reader error for $f" "$f.err"
}
for f in "$HOSTILE"/pstr.* "$HOSTILE"/champsim.flip*; do refuse_info "$f"; done
# Cut ChampSim copies go to the ChampSim reader itself, not the sniffer.
for f in "$HOSTILE"/champsim.cut*; do
  refuse_info "$f" --format champsim
done
for f in "$HOSTILE"/psck.*; do
  ./build-asan/src/cli/prestage sample run --preset clgp-l0 --bench eon \
    --instrs 20000 --plan "$f" > /dev/null 2> "$f.err" ||
    hostile_fail "sample run --plan failed on $f" "$f.err"
  if grep -qE "Sanitizer|runtime error" "$f.err"; then
    hostile_fail "sanitizer report on $f" "$f.err"
  fi
  grep -q "(PSCK checkpoint: .*); falling back to a fresh plan" "$f.err" ||
    hostile_fail "no fresh-plan fallback for $f" "$f.err"
done
echo "sanitizer: every hostile recording, trace and plan was refused typed"
# Hostile flag values: every --flag the usage text names, with no value
# and with values that are empty, not a number, negative, out of range,
# hexadecimal or too long for any integer. Every value is parsed before
# a command refuses the flags it does not read, and `list` reads none,
# so nothing is written; each run must end in 0 (--help) or in a
# `prestage:` usage error (exit 2), with no sanitizer report.
echo "sanitizer   : prestage list with hostile values for every flag"
FLAG_ERR=build-asan/ci-flag.err
hostile_flag() {  # ARGS...: `prestage list ARGS` must parse or refuse, cleanly
  local rc=0
  ./build-asan/src/cli/prestage list "$@" > /dev/null 2> "$FLAG_ERR" ||
    rc=$?
  if [ "$rc" -ne 0 ] && [ "$rc" -ne 2 ]; then
    hostile_fail "list ${1:-''} exited $rc" "$FLAG_ERR"
  fi
  if [ "$rc" -eq 2 ] && ! grep -q "^prestage: " "$FLAG_ERR"; then
    hostile_fail "list ${1:-''} exited 2 with no message" "$FLAG_ERR"
  fi
  # UBSan reports "runtime error:"; the usage text's exit-code line says
  # "runtime error," and is not one.
  if grep -qE "Sanitizer|runtime error:" "$FLAG_ERR"; then
    hostile_fail "sanitizer report on list ${1:-''}" "$FLAG_ERR"
  fi
}
FLAGS=$(./build-asan/src/cli/prestage --help | grep -oE -- '--[a-z0-9-]+' |
  sort -u)
test -n "$FLAGS"
LONG_NUMBER=$(printf '7%.0s' $(seq 4096))
for flag in $FLAGS; do
  hostile_flag "$flag"
  for value in '' x -1 1e999 0x10 123456789012345678901234567890 \
      "$LONG_NUMBER"; do
    hostile_flag "$flag" "$value"
  done
done
for arg in -j -jx -j99999999999999999999; do hostile_flag "$arg"; done
echo "sanitizer: every flag parsed or refused each hostile value typed"
# A hostile store: 1e300 has no uint64 value, so casting it would trip
# float-cast-overflow (which GCC's -fsanitize=undefined leaves out, hence
# its own entry in the preset). The loader must drop the line instead.
echo "sanitizer   : prestage campaign status on a store with cycles 1e300"
rm -f build-asan/ci-hostile.jsonl build-asan/ci-hostile.jsonl.perf
./build-asan/src/cli/prestage campaign run --name smoke --instrs 1200 \
  --store build-asan/ci-hostile.jsonl -j 2 > /dev/null
sed -i '1s/"cycles":[0-9]*/"cycles":1e300/' build-asan/ci-hostile.jsonl
./build-asan/src/cli/prestage campaign status --name smoke --instrs 1200 \
  --store build-asan/ci-hostile.jsonl --json - > build-asan/ci-hostile.json
if ! grep -q '"corrupt_dropped": 1,' build-asan/ci-hostile.json; then
  echo "sanitizer: the 1e300 line was not dropped as corrupt" >&2
  cat build-asan/ci-hostile.json >&2
  exit 1
fi
echo "sanitizer: the out-of-range count was dropped as corrupt"

# --- race-detector smoke -----------------------------------------------------
# ThreadSanitizer build of the multi-worker surfaces: the campaign
# engine's run/resume at -j 8 (ordered store flush + perf-sidecar
# appends under contention), the run_points suite path, the
# in-order scheduler's own tests, the process-wide
# single-flight caches (synthetic workloads, sampling plans) that every
# worker touches from Cpu::Cpu, and sampled campaigns (points waiting on
# a plan another worker is building, then every worker cloning shared
# trace snapshots): the sampled-campaign tests, and a cold-cache
# smoke-sampled run at -j 8, 8 workers on 2 plans in a fresh process, so
# six points wait on a build in flight; its store must match the Release
# stage's bytes. TSan exits non-zero on any report, so `set -e` is the
# gate.
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
rm -f build-tsan/ci-sampled.jsonl build-tsan/ci-sampled.jsonl.perf
./build-tsan/src/cli/prestage campaign run --name smoke-sampled \
  --instrs $SAMPLE_INSTRS --store build-tsan/ci-sampled.jsonl -j 8 > /dev/null
cmp build/ci-sampled.jsonl build-tsan/ci-sampled.jsonl
./build-tsan/tests/campaign_test \
  --gtest_filter='ParallelFor.*:CampaignEngine.*' > /dev/null
./build-tsan/tests/fault_test > /dev/null
./build-tsan/tests/memsys_stress_test > /dev/null
./build-tsan/tests/common_test --gtest_filter='SingleFlight.*' > /dev/null
./build-tsan/tests/cpu_test --gtest_filter='SharedWorkload.*' > /dev/null
./build-tsan/tests/workload_test \
  --gtest_filter='SyntheticWorkload.*' > /dev/null
./build-tsan/tests/sample_test \
  --gtest_filter='PlanCache.*:SampledCampaign.*' > /dev/null
echo "tsan: -j 8 run/resume, suite, cold-cache sampled run, scheduler," \
  "fault-layer, cache and sampled-campaign tests ran race-free"

echo "ci: OK"
