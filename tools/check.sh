#!/usr/bin/env bash
# One-shot hygiene gate. Stages, in order:
#   1. configure + build      ASan+UBSan, -Werror
#   2. ctest                  full suite, lock-order inversions fatal
#   3. ctest (scalar)         re-run with DJ_FORCE_SCALAR=1 so the SWAR/SIMD
#                             kernels' scalar twins carry the whole suite
#   4. recipe lint            dj_lint --Werror + plan-explain over every
#                             shipped recipe (no REFUSED plans)
#   5. source lint            dj_srclint --Werror over the tree, a manifest
#                             regeneration determinism check (regenerate to a
#                             temp file, must be byte-identical to the
#                             committed srclint/manifest.json), and a
#                             must-fail self-test against the seeded
#                             violations in tests/fixtures/srclint_bad/
#   6. thread-safety build    clang -Wthread-safety of the DJ_GUARDED_BY
#                             annotations (skipped when clang++ is absent)
#   7. static analysis        clang-tidy / cppcheck (skipped when absent)
#   8. observability smoke    trace + metrics round-trip — dj_trace_check
#                             validates every span/instant/metric name
#                             against srclint/manifest.json — plus the
#                             binary-container round-trip, a rerun after
#                             the input is edited in place (content-keyed
#                             cache) and a warm rerun that must not decode
#                             its input, the fault-matrix
#                             crash/resume smoke, a profiled run
#                             (--require-profile) and an injected-stall
#                             watchdog dump; then the perf gate:
#                             tools/perf_gate.sh HEAD times the working
#                             tree against the last commit in alternated
#                             perfbench pairs (a clean tree must pass),
#                             and its judging step must fail a
#                             refine_arxiv pair run at --np 1
#   9. benchmark oracle       short perfbench refine_arxiv, pack_web,
#                             dedup_web and rerun_cached runs: every
#                             dj_process output must match the naive-plan
#                             reference byte for byte
#  10. TSan                   concurrency-heavy tests (incl. the dedup OPs,
#                             whose pooled phases write rows), then re-run
#                             under three seeds of schedule perturbation
#                             (DJ_SCHED)
# Run from anywhere inside the repo.
#
# Usage: tools/check.sh [build-dir]   (default: build-check)

set -euo pipefail

repo_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_dir}/build-check}"

echo "== configure (ASan+UBSan, -Werror) =="
cmake -B "${build_dir}" -S "${repo_dir}" \
  -DCMAKE_BUILD_TYPE=Debug \
  -DDJ_SANITIZE=address,undefined \
  -DDJ_WERROR=ON \
  -DCMAKE_EXPORT_COMPILE_COMMANDS=ON

echo "== build =="
cmake --build "${build_dir}" -j

echo "== test (lock-order inversions fatal) =="
DJ_LOCK_ORDER=fatal ctest --test-dir "${build_dir}" --output-on-failure -j4

echo "== test again with kernels pinned scalar (DJ_FORCE_SCALAR=1) =="
# The whole suite must pass with the SWAR/SIMD data-plane kernels disabled:
# the scalar twins are the reference semantics, and every path that
# dispatches into the kernel library has to be byte-identical either way
# (tests/swar_test.cc checks the kernels differentially; this pass checks
# everything built on top of them).
DJ_FORCE_SCALAR=1 DJ_LOCK_ORDER=fatal \
  ctest --test-dir "${build_dir}" --output-on-failure -j4

echo "== lint shipped recipes (--Werror) =="
"${build_dir}/tools/dj_lint" --Werror "${repo_dir}"/configs/recipes/*.yaml

echo "== explain shipped plans (must all be licensed) =="
explain_out="$("${build_dir}/tools/dj_lint" --explain-plan \
  "${repo_dir}"/configs/recipes/*.yaml)"
if grep -q "REFUSED" <<< "${explain_out}"; then
  echo "${explain_out}"
  echo "check.sh: a shipped recipe's optimized plan was refused" >&2
  exit 1
fi

echo "== source lint (dj_srclint --Werror) =="
"${build_dir}/tools/dj_srclint" --root "${repo_dir}" --Werror

echo "== srclint manifest regeneration is deterministic and committed =="
srclint_tmp="$(mktemp)"
"${build_dir}/tools/dj_srclint" --root "${repo_dir}" \
  --manifest "${srclint_tmp}" --update-manifest
if ! cmp -s "${srclint_tmp}" "${repo_dir}/srclint/manifest.json"; then
  diff -u "${repo_dir}/srclint/manifest.json" "${srclint_tmp}" >&2 || true
  rm -f "${srclint_tmp}"
  echo "check.sh: srclint/manifest.json is stale; run" \
       "dj_srclint --update-manifest and commit the result" >&2
  exit 1
fi
rm -f "${srclint_tmp}"

echo "== srclint must-fail self-test (seeded violations) =="
srclint_bad_rc=0
"${build_dir}/tools/dj_srclint" \
  --root "${repo_dir}/tests/fixtures/srclint_bad" --Werror \
  > /dev/null || srclint_bad_rc=$?
if [ "${srclint_bad_rc}" -ne 1 ]; then
  echo "check.sh: dj_srclint expected exit 1 on the seeded fixture," \
       "got ${srclint_bad_rc}" >&2
  exit 1
fi

echo "== thread-safety analysis (clang -Wthread-safety, if installed) =="
if command -v clang++ >/dev/null 2>&1; then
  tsa_dir="${build_dir}-tsa"
  cmake -B "${tsa_dir}" -S "${repo_dir}" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_COMPILER=clang++ \
    -DDJ_THREAD_SAFETY=ON \
    -DDJ_WERROR=ON
  cmake --build "${tsa_dir}" -j
else
  echo "clang++ not installed; skipping DJ_THREAD_SAFETY build" \
       "(annotations compile as no-ops under this compiler)"
fi

echo "== static analysis (clang-tidy / cppcheck, if installed) =="
if command -v clang-tidy >/dev/null 2>&1; then
  git -C "${repo_dir}" ls-files 'src/*.cc' 'tools/*.cc' | while read -r f; do
    clang-tidy -p "${build_dir}" --quiet "${repo_dir}/${f}"
  done
else
  echo "clang-tidy not installed; skipping (config: .clang-tidy)"
fi
if command -v cppcheck >/dev/null 2>&1; then
  cppcheck --project="${build_dir}/compile_commands.json" \
    --enable=warning,performance --inline-suppr \
    --suppress='*:*/third_party/*' --error-exitcode=1 --quiet
else
  echo "cppcheck not installed; skipping"
fi

echo "== trace smoke-gate =="
smoke_dir="$(mktemp -d)"
trap 'rm -rf "${smoke_dir}"' EXIT
for i in $(seq 1 40); do
  printf '{"text": "Smoke doc %d: the quick brown fox jumps over the lazy dog %d times in a row."}\n' \
    "$i" "$((i % 5))"
done > "${smoke_dir}/in.jsonl"
"${build_dir}/tools/dj_process" \
  --recipe "${repo_dir}/configs/recipes/minimal_dedup.yaml" \
  --input "${smoke_dir}/in.jsonl" \
  --output "${smoke_dir}/out.jsonl" \
  --trace-out "${smoke_dir}/trace.json" \
  --metrics-out "${smoke_dir}/metrics.json"
"${build_dir}/tools/dj_trace_check" --require-io-spans \
  --manifest "${repo_dir}/srclint/manifest.json" \
  "${smoke_dir}/trace.json" "${smoke_dir}/metrics.json"

echo "== binary container round-trip (.djds.djlz at --np 4) =="
# Same recipe, same input, but exported through the compressed binary
# container; a passthrough recipe then imports it back to JSONL. The result
# must be byte-identical to the plain JSONL export above — this exercises
# the sharded DJDS v3 codec and block-parallel djlz end to end with a
# 4-worker pool.
"${build_dir}/tools/dj_process" \
  --recipe "${repo_dir}/configs/recipes/minimal_dedup.yaml" \
  --input "${smoke_dir}/in.jsonl" \
  --output "${smoke_dir}/out.djds.djlz" \
  --np 4
cat > "${smoke_dir}/passthrough.yaml" <<'EOF'
project_name: smoke_roundtrip
np: 4
EOF
"${build_dir}/tools/dj_process" \
  --recipe "${smoke_dir}/passthrough.yaml" \
  --input "${smoke_dir}/out.djds.djlz" \
  --output "${smoke_dir}/roundtrip.jsonl" \
  --no-verify
cmp "${smoke_dir}/out.jsonl" "${smoke_dir}/roundtrip.jsonl"
echo "round-trip byte-identical"

echo "== content-keyed cache smoke (input edited in place, then rerun) =="
# Cache keys start from a digest of the input's bytes, not its path. After
# the input is overwritten with other rows, a cached rerun must export what
# a no-cache run of the edited file exports; a warm rerun of the unchanged
# file must export the same bytes and report that it did not decode it.
cache_in="${smoke_dir}/cache_in.jsonl"
cache_dir="${smoke_dir}/content_cache"
dedup_smoke() {
  "${build_dir}/tools/dj_process" \
    --recipe "${repo_dir}/configs/recipes/minimal_dedup.yaml" \
    --input "${cache_in}" "$@"
}
cp "${smoke_dir}/in.jsonl" "${cache_in}"
dedup_smoke --output "${smoke_dir}/cache_old.jsonl" --cache-dir "${cache_dir}"
for i in $(seq 1 25); do
  printf '{"text": "Edited doc %d: other rows about %d slow turtles on a hill."}\n' \
    "$i" "$((i % 4))"
done > "${cache_in}"
dedup_smoke --output "${smoke_dir}/cache_ref.jsonl"
dedup_smoke --output "${smoke_dir}/cache_edited.jsonl" --cache-dir "${cache_dir}"
if cmp -s "${smoke_dir}/cache_old.jsonl" "${smoke_dir}/cache_ref.jsonl"; then
  echo "check.sh: the edited input exports the old rows' bytes" >&2
  exit 1
fi
cmp "${smoke_dir}/cache_ref.jsonl" "${smoke_dir}/cache_edited.jsonl"
dedup_smoke --output "${smoke_dir}/cache_warm.jsonl" --cache-dir "${cache_dir}" \
  > "${smoke_dir}/cache_warm.txt"
cmp "${smoke_dir}/cache_ref.jsonl" "${smoke_dir}/cache_warm.jsonl"
if ! grep -q "^input not decoded" "${smoke_dir}/cache_warm.txt"; then
  cat "${smoke_dir}/cache_warm.txt" >&2
  echo "check.sh: a warm rerun decoded its input" >&2
  exit 1
fi
echo "edited input recomputed, warm rerun byte-identical without a decode"

echo "== fault-matrix smoke (crash at an OP boundary, resume, compare) =="
# Three seeds: each run is killed at the second OP boundary via the
# DJ_FAULTS env var, must leave an inspectable trace with a fault instant,
# and after a --resume run must produce output byte-identical to the
# uninterrupted export from the trace smoke-gate above.
for seed in 1 2 3; do
  ckpt_dir="${smoke_dir}/ckpt_seed${seed}"
  if DJ_FAULTS="seed=${seed};exec.op_abort=n2" "${build_dir}/tools/dj_process" \
    --recipe "${repo_dir}/configs/recipes/minimal_dedup.yaml" \
    --input "${smoke_dir}/in.jsonl" \
    --output "${smoke_dir}/fault_seed${seed}.jsonl" \
    --checkpoint-dir "${ckpt_dir}" \
    --trace-out "${smoke_dir}/fault_trace${seed}.json" \
    --metrics-out "${smoke_dir}/fault_metrics${seed}.json"; then
    echo "check.sh: seed ${seed} fault run was expected to crash" >&2
    exit 1
  fi
  "${build_dir}/tools/dj_trace_check" --require-fault-instants \
    "${smoke_dir}/fault_trace${seed}.json" "${smoke_dir}/fault_metrics${seed}.json"
  "${build_dir}/tools/dj_process" \
    --recipe "${repo_dir}/configs/recipes/minimal_dedup.yaml" \
    --input "${smoke_dir}/in.jsonl" \
    --output "${smoke_dir}/fault_seed${seed}.jsonl" \
    --checkpoint-dir "${ckpt_dir}" \
    --resume
  cmp "${smoke_dir}/out.jsonl" "${smoke_dir}/fault_seed${seed}.jsonl"
done
echo "crash+resume byte-identical for all seeds"

echo "== profiled smoke (sampling profiler + watchdog alive) =="
# The fig8 pretrain-books recipe over a bigger corpus (the 40-doc one
# finishes inside one 2 ms sampling interval), the profiler writing
# collapsed stacks and a (quiet) watchdog attached: the profile must be
# non-empty and the trace must be self-describing about both
# (profile:tick + watchdog:beat instants, a "profile" object in
# metrics.json). Synthetic prose does not survive the recipe's quality
# filters (its duplicate-ngram ratio is inherently high) — irrelevant
# here: the assertions are about the profiling artifacts, not the output.
nouns=(river mountain harvest lantern voyage quiet marble signal autumn copper meadow spiral)
verbs=(describes follows examines recalls measures traces)
for i in $(seq 1 600); do
  body=""
  for j in $(seq 1 12); do
    body="${body}The ${nouns[$(((i * 7 + j * 3) % 12))]} ${verbs[$(((i + j) % 6))]} the ${nouns[$(((i * 5 + j) % 12))]} beyond the ${nouns[$(((j * 11 + i) % 12))]} while the reader counts to $(((i * j) % 97)) and notes what chapter ${j} of book ${i} still owes its plot. "
  done
  printf '{"text": "%s"}\n' "${body}"
done > "${smoke_dir}/profile_in.jsonl"
"${build_dir}/tools/dj_process" \
  --recipe "${repo_dir}/configs/recipes/pretrain_books.yaml" \
  --input "${smoke_dir}/profile_in.jsonl" \
  --output "${smoke_dir}/profiled_out.jsonl" \
  --trace-out "${smoke_dir}/profiled_trace.json" \
  --metrics-out "${smoke_dir}/profiled_metrics.json" \
  --profile-out "${smoke_dir}/profile.folded" \
  --watchdog "stall=30"
test -s "${smoke_dir}/profile.folded"
"${build_dir}/tools/dj_trace_check" --require-profile \
  "${smoke_dir}/profiled_trace.json" "${smoke_dir}/profiled_metrics.json"

echo "== watchdog stall smoke (injected stall must be dumped) =="
# An exec.stall fail point makes the executor sleep busy-without-beating
# past a tight threshold; the run must survive AND the stall dump must
# reach stderr.
"${build_dir}/tools/dj_process" \
  --recipe "${repo_dir}/configs/recipes/minimal_dedup.yaml" \
  --input "${smoke_dir}/in.jsonl" \
  --output "${smoke_dir}/stalled_out.jsonl" \
  --faults "exec.stall=n1" \
  --watchdog "stall=0.1;poll=0.025" \
  2> "${smoke_dir}/watchdog_stderr.txt"
if ! grep -q "=== WATCHDOG" "${smoke_dir}/watchdog_stderr.txt"; then
  cat "${smoke_dir}/watchdog_stderr.txt" >&2
  echo "check.sh: injected stall did not produce a watchdog dump" >&2
  exit 1
fi
cmp "${smoke_dir}/out.jsonl" "${smoke_dir}/stalled_out.jsonl"

echo "== perf gate (working tree vs HEAD, perfbench pairs) =="
"${repo_dir}/tools/perf_gate.sh" HEAD

echo "== perf gate must-fail self-test (HEAD side at --np 1) =="
# The gate's judging step on one refine_arxiv pair whose HEAD side ran at
# --np 1 (perfbench's degraded-run flag) has to exit 1: WORSE in 1 of 1
# pairs. 2 would mean the pair was not compared at all.
(cd "${repo_dir}" && python3 perfbench/run.py --workload refine_arxiv \
  --seed 1 --seconds 3 --trace 0 --out "${smoke_dir}/gate_base.json" \
  > /dev/null)
(cd "${repo_dir}" && python3 perfbench/run.py --workload refine_arxiv \
  --seed 1 --seconds 3 --trace 0 --np 1 --out "${smoke_dir}/gate_np1.json" \
  > /dev/null)
gate_rc=0
(source "${repo_dir}/tools/perf_gate.sh" &&
  judge refine_arxiv "${smoke_dir}/gate_base.json" "${smoke_dir}/gate_np1.json") \
  || gate_rc=$?
if [ "${gate_rc}" -ne 1 ]; then
  echo "check.sh: perf gate self-test expected exit 1, got ${gate_rc}" >&2
  exit 1
fi

echo "== benchmark byte oracle (perfbench refine_arxiv/pack_web/dedup_web/rerun_cached) =="
# Short end-to-end benchmark runs (Release build in .bench_build/), every
# timed run's output compared byte for byte against the naive-plan
# reference; the last stdout line is the result. refine_arxiv covers the
# mappers and stats filters of pretrain_arxiv (fused, at --np 4) against
# the unfused np=1 reference, pack_web covers the
# read -> parse -> serialize -> compress -> write path of dj_process at
# --np 4, dedup_web the pooled phases of the global dedup OPs, rerun_cached
# the cache entries every timed run reads back through the DJDS and djlz
# readers.
for workload in refine_arxiv pack_web dedup_web rerun_cached; do
  bench_result="$(cd "${repo_dir}" && python3 perfbench/run.py \
    --workload "${workload}" --seed 1 --seconds 3 --trace 0 | tail -n 1)"
  if ! python3 -c '
import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)
' "${bench_result}"; then
    echo "${bench_result}" >&2
    echo "check.sh: ${workload} benchmark run was not byte-correct" >&2
    exit 1
  fi
  echo "${workload} outputs byte-identical to the reference"
done

echo "== TSan pass (core/dist/obs + parallel I/O + dedup + fault tests) =="
# The suppressions file only mutes the deliberate lock-order inversions
# that tests/concurrency_test.cc constructs on purpose (see tools/tsan.supp).
export TSAN_OPTIONS="suppressions=${repo_dir}/tools/tsan.supp"
tsan_dir="${build_dir}-tsan"
cmake -B "${tsan_dir}" -S "${repo_dir}" \
  -DCMAKE_BUILD_TYPE=Debug \
  -DDJ_SANITIZE=thread
cmake --build "${tsan_dir}" -j --target \
  core_test dist_test obs_test data_test io_parallel_test compress_test \
  ops_dedup_test fault_test concurrency_test swar_test
"${tsan_dir}/tests/swar_test"
"${tsan_dir}/tests/concurrency_test"
"${tsan_dir}/tests/core_test"
"${tsan_dir}/tests/dist_test"
"${tsan_dir}/tests/obs_test"
"${tsan_dir}/tests/data_test"
"${tsan_dir}/tests/io_parallel_test"
"${tsan_dir}/tests/compress_test"
"${tsan_dir}/tests/ops_dedup_test"
# The full crash matrix is slow under TSan; run the registry/determinism/
# state-store suites plus one representative recipe matrix.
"${tsan_dir}/tests/fault_test" --gtest_filter="FaultRegistryTest.*:FaultDeterminismTest.*:FaultObsTest.*:AllCrashWindows/StoreCrashTest.*:StoreCorruptionTest.*:CheckpointStoreTest.*:*CrashMatrixTest*minimal_dedup*"

echo "== TSan under schedule perturbation (3 seeds) =="
# Seeded yield/sleep probes at lock boundaries, pool dispatch, and gather
# joins force interleavings a quiet machine never produces — exactly what
# TSan needs to see racy pairs overlap. Each seed is a different shake.
for seed in 1 2 3; do
  echo "-- DJ_SCHED seed=${seed} --"
  DJ_SCHED="seed=${seed};p=0.05;max_us=200" \
    "${tsan_dir}/tests/concurrency_test"
  DJ_SCHED="seed=${seed};p=0.05;max_us=200" \
    "${tsan_dir}/tests/io_parallel_test"
  DJ_SCHED="seed=${seed};p=0.05;max_us=200" \
    "${tsan_dir}/tests/compress_test"
  DJ_SCHED="seed=${seed};p=0.02;max_us=100" \
    "${tsan_dir}/tests/dist_test"
done

echo "check.sh: all green"
