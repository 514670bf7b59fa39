#!/usr/bin/env bash
# Tier-1 verify: configure, build everything (tests + benches + examples +
# tools) with -Werror on the library target, run the full CTest suite, smoke
# the installable CMake package from an external consumer, and record the
# bench_micro JSON baseline for perf trending.
# Must pass with no network access — the vendored minigtest/minibenchmark
# fallbacks cover machines without GoogleTest/google-benchmark installed.
#
# Usage:
#   ./ci.sh                 # full tier-1 verify (all labels)
#   ./ci.sh -L unit         # extra args are forwarded to ctest
#   FROTE_CI_VENDORED=1 ./ci.sh   # force the vendored runners (offline mode)
#   FROTE_CI_SKIP_PACKAGE=1 / FROTE_CI_SKIP_BENCH=1 /
#   FROTE_CI_SKIP_SANITIZE=1 skip the extra stages
set -euo pipefail
cd "$(dirname "$0")"

BUILD_DIR=${FROTE_CI_BUILD_DIR:-build-ci}
CMAKE_ARGS=(-DFROTE_WERROR=ON)
if [[ "${FROTE_CI_VENDORED:-0}" == "1" ]]; then
  CMAKE_ARGS+=(-DFROTE_USE_SYSTEM_GTEST=OFF -DFROTE_USE_SYSTEM_BENCHMARK=OFF)
fi

cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}"
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" "$@"

# Determinism under parallelism: rerun the reproducibility suites with the
# thread pool engaged. Output must be bit-identical to the serial default —
# util/parallel.hpp's fixed chunk boundaries and ordered reductions are the
# guarantee, these suites are the lock.
echo "=== determinism leg: FROTE_NUM_THREADS=4 ==="
# test_workspace includes a full IP-selection session, so the leg covers the
# selector/generator thread plumbing as well as the retrain/eval paths;
# test_checkpoint/test_spec add snapshot-resume and the plan driver;
# test_incremental_learners locks update() ≡ train() and the certified
# neighborhood cache under the pool;
# test_serve drives the daemon end-to-end (its own suites re-check 1 vs 4);
# test_knn runs the differential kNN oracle with sharded fan-out on the pool.
FROTE_NUM_THREADS=4 ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -R 'test_parallel|test_determinism|test_engine_api|test_workspace|test_checkpoint|test_spec|test_scenario|test_serve|test_chunks|test_sharded_knn|test_incremental_learners|test_knn'

# Spec-driven leg: run a small declarative plan to completion (golden),
# then the same plan interrupted mid-run (--max-steps leaves per-run
# checkpoints behind) and resumed — the artifacts must be byte-identical.
# This is the end-to-end lock on EngineSpec resolution, the concurrent
# frote_run driver, and checkpoint/restore bit-identity.
echo "=== spec leg: frote_run plan -> interrupt -> resume -> diff ==="
SPEC_DIR="$BUILD_DIR/spec-leg"
rm -rf "$SPEC_DIR"
mkdir -p "$SPEC_DIR"
cat > "$SPEC_DIR/plan.json" <<'EOF'
{
  "format": "frote.run_plan",
  "base": {
    "format": "frote.engine_spec",
    "tau": 6, "q": 0.4, "k": 5, "seed": 7,
    "mod_strategy": "none",
    "learner": {"name": "rf", "fast": true},
    "rules": ["IF age > 45 AND education_num > 11 THEN class = >50K"],
    "dataset": {"kind": "synthetic", "name": "adult", "size": 300, "seed": 11}
  },
  "grid": {"learners": ["rf", "lr"], "seeds": [1, 2]},
  "threads": 4
}
EOF
"$BUILD_DIR/tools/frote_run" --plan "$SPEC_DIR/plan.json" --dry-run > /dev/null
"$BUILD_DIR/tools/frote_run" --plan "$SPEC_DIR/plan.json" \
  --out "$SPEC_DIR/golden" > /dev/null
"$BUILD_DIR/tools/frote_run" --plan "$SPEC_DIR/plan.json" \
  --out "$SPEC_DIR/resumed" --checkpoint-every 1 --max-steps 3 > /dev/null
"$BUILD_DIR/tools/frote_run" --plan "$SPEC_DIR/plan.json" \
  --out "$SPEC_DIR/resumed" --resume > /dev/null
diff -r "$SPEC_DIR/golden" "$SPEC_DIR/resumed"
echo "spec leg: interrupted+resumed plan is byte-identical to golden"

# Scenario leg: the committed scenario grid (all three families × 2 seeds,
# tests/goldens/scenario/plan.json) replayed through frote_run with the
# thread pool engaged, each run's result.json diffed against the committed
# golden. This locks the whole scenario path — registry resolution, the
# generator, drift snapshot/restore, per-group deltas and the
# expected-outcome bundle — to the byte, across machines and thread counts.
# Regenerate the goldens (see that directory's README) only when a PR
# changes scenario semantics on purpose.
echo "=== scenario leg: frote_run scenario grid -> diff vs committed goldens ==="
SCEN_DIR="$BUILD_DIR/scenario-leg"
rm -rf "$SCEN_DIR"
FROTE_NUM_THREADS=4 "$BUILD_DIR/tools/frote_run" \
  --plan tests/goldens/scenario/plan.json --out "$SCEN_DIR" > /dev/null
for golden in tests/goldens/scenario/*.result.json; do
  run=$(basename "$golden" .result.json)
  diff "$golden" "$SCEN_DIR/$run/result.json"
done
echo "scenario leg: all scenario results byte-identical to committed goldens"

# Serve leg: the same contract script through both frote_serve frontends.
# A stdio daemon produces the golden responses; an HTTP daemon on an
# ephemeral port (--port-file handshake) is driven with the built-in
# client and must answer byte-identically. SIGTERM then stops the HTTP
# daemon with a session still open — the clean-shutdown path must exit 0
# and leave that session checkpointed in the spool.
echo "=== serve leg: stdio golden vs HTTP drive -> diff; SIGTERM spools ==="
SERVE_DIR="$BUILD_DIR/serve-leg"
rm -rf "$SERVE_DIR"
mkdir -p "$SERVE_DIR"
cat > "$SERVE_DIR/script.jsonl" <<'EOF'
{"jsonrpc":"2.0","id":"create","method":"session.create","params":{"spec":{"format":"frote.engine_spec","tau":4,"q":0.4,"eta":40,"seed":7,"mod_strategy":"none","learner":{"name":"rf","fast":true},"rules":["IF age > 45 AND education_num > 11 THEN class = >50K"],"dataset":{"kind":"synthetic","name":"adult","size":300,"seed":11}}}}
{"jsonrpc":"2.0","id":"step","method":"session.step","params":{"session":"s-000001","steps":3}}
{"jsonrpc":"2.0","id":"snap","method":"session.snapshot","params":{"session":"s-000001"}}
{"jsonrpc":"2.0","id":"result","method":"session.result","params":{"session":"s-000001"}}
{"jsonrpc":"2.0","id":"bad","method":"session.result","params":{"session":"s-999999"}}
EOF
"$BUILD_DIR/tools/frote_serve" < "$SERVE_DIR/script.jsonl" \
  > "$SERVE_DIR/golden.jsonl"
"$BUILD_DIR/tools/frote_serve" --http --port-file "$SERVE_DIR/port.txt" \
  --spool "$SERVE_DIR/spool" &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [[ -s "$SERVE_DIR/port.txt" ]] && break
  sleep 0.1
done
[[ -s "$SERVE_DIR/port.txt" ]] || { echo "serve leg: daemon never published its port" >&2; exit 1; }
"$BUILD_DIR/tools/frote_serve" --drive "$(cat "$SERVE_DIR/port.txt")" \
  --script "$SERVE_DIR/script.jsonl" > "$SERVE_DIR/http.jsonl"
diff "$SERVE_DIR/golden.jsonl" "$SERVE_DIR/http.jsonl"
# The script leaves s-000001 open on purpose: SIGTERM must spool it.
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
test -s "$SERVE_DIR/spool/s-000001.checkpoint.json"
echo "serve leg: HTTP responses byte-identical to stdio; SIGTERM checkpointed the open session"

# Chaos leg: the kill-recover sweep (label "chaos" — test_chaos_serve
# SIGKILLs daemons at every registered fsio/pool fault point and asserts
# recovery lands on an adjacent checkpoint, never a torn third state).
# Also part of the full ctest run above; re-run explicitly so a chaos
# failure is unmissable in the log. The FROTE_FAULTS smoke then exercises
# the env-var injection path: a daemon with a failing spool fsync must
# absorb the failure (spool_failures, not a crash) and answer the contract
# script byte-identically to the fault-free golden.
echo "=== chaos leg: ctest -L chaos + FROTE_FAULTS smoke ==="
ctest --test-dir "$BUILD_DIR" --output-on-failure -L chaos
FROTE_FAULTS="fsio.fsync:nth=3" "$BUILD_DIR/tools/frote_serve" \
  --spool "$SERVE_DIR/faults-spool" --evict-every-request \
  < "$SERVE_DIR/script.jsonl" > "$SERVE_DIR/faults.jsonl"
diff "$SERVE_DIR/golden.jsonl" "$SERVE_DIR/faults.jsonl"
echo "chaos leg: injected spool failure absorbed; responses byte-identical"

# Sanitizer leg: rebuild with AddressSanitizer + UBSan (-DFROTE_SANITIZE=ON,
# separate build dir) and rerun the unit + chaos labels. The chunked data
# plane and the sharded index move row storage behind raw pointers and
# shared mmap'd chunks — exactly the kind of code ASan catches regressions
# in that functional tests cannot — and the chaos sweep's SIGKILL/recover
# cycles run the spool validation and quarantine paths under the sanitizer
# too. Benches and examples are skipped in this build; tools stay on
# because test_serve / test_chaos_serve drive the real daemon. The
# FROTE_FAULTS smoke at the end runs the ASan daemon through an injected
# spool failure: the error-unwinding path (throw through evict, TmpGuard
# cleanup) is where leaks and use-after-frees hide.
if [[ "${FROTE_CI_SKIP_SANITIZE:-0}" != "1" ]]; then
  echo "=== sanitizer leg: ASan+UBSan ctest -L unit|chaos ==="
  SAN_DIR="$BUILD_DIR-asan"
  cmake -B "$SAN_DIR" -S . "${CMAKE_ARGS[@]}" -DFROTE_SANITIZE=ON \
    -DFROTE_BUILD_BENCHES=OFF -DFROTE_BUILD_EXAMPLES=OFF > /dev/null
  cmake --build "$SAN_DIR" -j "$(nproc)"
  ctest --test-dir "$SAN_DIR" --output-on-failure -j "$(nproc)" -L 'unit|chaos'
  echo "=== sanitizer leg: FROTE_FAULTS smoke ==="
  FROTE_FAULTS="fsio.fsync:nth=3" "$SAN_DIR/tools/frote_serve" \
    --spool "$SAN_DIR/faults-spool" --evict-every-request \
    < "$SERVE_DIR/script.jsonl" > /dev/null
fi

# Package smoke: install to a scratch prefix, then build and run a 10-line
# external consumer that only does find_package(frote) + frote_api.hpp.
if [[ "${FROTE_CI_SKIP_PACKAGE:-0}" != "1" ]]; then
  echo "=== package smoke: find_package(frote) from an external consumer ==="
  case "$BUILD_DIR" in
    /*) PACKAGE_PREFIX="$BUILD_DIR/package-prefix" ;;
    *) PACKAGE_PREFIX="$PWD/$BUILD_DIR/package-prefix" ;;
  esac
  cmake --install "$BUILD_DIR" --prefix "$PACKAGE_PREFIX" > /dev/null
  cmake -B "$BUILD_DIR/package-smoke" -S cmake/package_smoke \
    -DCMAKE_PREFIX_PATH="$PACKAGE_PREFIX" > /dev/null
  cmake --build "$BUILD_DIR/package-smoke" -j "$(nproc)"
  "$BUILD_DIR/package-smoke/frote_smoke"
fi

# Perf trajectory: refresh the bench_micro JSON baseline (build-local copy;
# commit it to BENCH_micro.json when a perf PR moves the numbers on purpose)
# and diff it against the committed baseline. The compare is non-strict —
# shared runners are noisy, so >25% regressions warn loudly instead of
# failing; investigate any "<< REGRESSION" line before merging.
if [[ "${FROTE_CI_SKIP_BENCH:-0}" != "1" ]]; then
  echo "=== bench baseline: bench_micro -> $BUILD_DIR/BENCH_micro.json ==="
  # The threads sweep re-times the thread-sensitive hot paths at 1/2/4
  # workers as <name>/threads:n rows, so the baseline diff also covers the
  # multicore scaling table the committed BENCH_micro.json records.
  FROTE_BENCH_THREADS="${FROTE_BENCH_THREADS:-1 2 4}" \
    bench/dump_bench_json.sh "$BUILD_DIR" "$BUILD_DIR/BENCH_micro.json"
  if command -v python3 > /dev/null; then
    echo "=== bench compare: committed BENCH_micro.json vs fresh run ==="
    python3 tools/bench_compare.py BENCH_micro.json "$BUILD_DIR/BENCH_micro.json"
    if [[ "${FROTE_BENCH_STRICT:-0}" == "1" ]]; then
      # Opt-in hard gate over the load-bearing loop benchmarks. The default
      # leg above stays warn-only: shared runners are too noisy to gate the
      # whole table, but a >25% regression on the FROTE iteration, IP
      # selection, the objective evaluation, the accept path (session step,
      # incremental model update, snapshot restore), or the serving loop is
      # a perf bug, not noise.
      echo "=== bench compare (strict): curated hot-path subset ==="
      python3 tools/bench_compare.py --strict \
        --only BM_FroteIteration,BM_IpSelection,BM_ObjectiveEval,BM_SessionStepAccept,BM_SnapshotRestore,BM_ModelUpdate,BM_ServeRequest,BM_ServeEvictRestore \
        BENCH_micro.json "$BUILD_DIR/BENCH_micro.json"
    fi
  fi
fi
