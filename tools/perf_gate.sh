#!/usr/bin/env bash
# Perf gate: the current checkout, working tree included, against BASE_REF
# on every BENCHMARK.json workload, measured end to end by perfbench.
#
# BASE_REF is checked out in a git worktree under .bench_work/, and each side
# is built by its own perfbench/run.py. Per workload, PAIRS pairs of
# `run.py --out` runs are timed for BENCHMARK.json's run_seconds, one seed
# per pair, the side that runs first alternating from pair to pair so that
# host drift favours neither. Each pair is judged by `run.py compare`, which
# holds the bounds and metric directions; a workload fails when a majority
# of its pairs read WORSE.
#
# Exit status:
#   0  every workload passed
#   1  a workload regressed, or a run was not byte-correct
#      (`correct: false` or `failed > 0`)
#   2  nothing could be judged: not a git checkout, BASE_REF does not name a
#      commit, a run did not finish, or compare found a host mismatch
#
# Usage: tools/perf_gate.sh BASE_REF     (HEAD, or the parent of a change)
#
# Sourcing this file defines judge() and runs nothing; check.sh's must-fail
# self-test calls it on a hand-made pair.

set -euo pipefail

PAIRS=3
repo_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd -P)"

# judge WORKLOAD BASE.json NEW.json [BASE.json NEW.json ...]: the verdict on
# one workload from its pairs of run.py --out files. Returns like the gate.
judge() {
  local workload="$1" pairs=0 worse=0 rc
  shift
  while (( $# >= 2 )); do
    pairs=$((pairs + 1))
    if ! python3 -c '
import json, sys
for path in sys.argv[1:]:
    r = json.load(open(path))
    if r.get("correct") is not True or r.get("failed") != 0:
        sys.exit("%s: correct %s, failed %s"
                 % (path, r.get("correct"), r.get("failed")))
' "$1" "$2"; then
      echo "perf_gate: ${workload}: a run was not byte-correct" >&2
      return 1
    fi
    echo "-- pair ${pairs}: $(basename "$1") vs $(basename "$2")"
    rc=0
    python3 "${repo_dir}/perfbench/run.py" compare "$1" "$2" || rc=$?
    shift 2
    case "${rc}" in
      0) ;;
      1) worse=$((worse + 1)) ;;
      *) echo "perf_gate: ${workload}: pair ${pairs} not compared" >&2
         return 2 ;;
    esac
  done
  if (( 2 * worse > pairs )); then
    echo "perf_gate: ${workload}: WORSE in ${worse} of ${pairs} pairs"
    return 1
  fi
  echo "perf_gate: ${workload}: ok, WORSE in ${worse} of ${pairs} pairs"
}

[[ "${BASH_SOURCE[0]}" == "$0" ]] || return 0

if (( $# != 1 )); then
  echo "usage: tools/perf_gate.sh BASE_REF" >&2
  exit 2
fi
if [[ "$(git -C "${repo_dir}" rev-parse --show-toplevel 2>/dev/null)" \
      != "${repo_dir}" ]]; then
  echo "perf_gate: ${repo_dir} is not a git checkout" >&2
  exit 2
fi
if ! base_rev="$(git -C "${repo_dir}" rev-parse --verify --quiet \
                   "$1^{commit}")"; then
  echo "perf_gate: '$1' does not name a commit" >&2
  exit 2
fi

mkdir -p "${repo_dir}/.bench_work"
gate_dir="$(mktemp -d "${repo_dir}/.bench_work/perf_gate.XXXXXX")"
base_dir="${gate_dir}/base"
cleanup() {
  git -C "${repo_dir}" worktree remove --force "${base_dir}" 2>/dev/null \
    || true
  rm -rf "${gate_dir}"
  git -C "${repo_dir}" worktree prune
  rmdir "${repo_dir}/.bench_work" 2>/dev/null || true
}
trap cleanup EXIT
trap 'exit 2' INT TERM HUP
git -C "${repo_dir}" worktree add --detach --quiet "${base_dir}" "${base_rev}"

read -r seconds workloads <<< "$(python3 -c '
import json, sys
b = json.load(open(sys.argv[1]))
print(b["run_seconds"], *(w["name"] for w in b["workloads"]))
' "${repo_dir}/BENCHMARK.json")"

# run base|head WORKLOAD SEED: one timed perfbench run of that side.
run() {
  local dir="${repo_dir}" out="${gate_dir}/$2-$3-$1.json"
  [[ "$1" == head ]] || dir="${base_dir}"
  if ! (cd "${dir}" && python3 perfbench/run.py --workload "$2" \
          --seed "$3" --seconds "${seconds}" --trace 0 --out "${out}") \
        > "${out%.json}.log" 2>&1; then
    tail -n 20 "${out%.json}.log" >&2
    echo "perf_gate: $1 run of $2 (seed $3) did not finish" >&2
    exit 2
  fi
  echo "$1 seed $3: $(tail -n 1 "${out%.json}.log")"
}

echo "perf_gate: ${base_rev} (${1}) vs the working tree, ${PAIRS} pairs" \
     "per workload at ${seconds} s"
status=0
for workload in ${workloads}; do
  echo "== ${workload} =="
  files=()
  for seed in $(seq 1 "${PAIRS}"); do
    if (( seed % 2 )); then
      run base "${workload}" "${seed}"
      run head "${workload}" "${seed}"
    else
      run head "${workload}" "${seed}"
      run base "${workload}" "${seed}"
    fi
    files+=("${gate_dir}/${workload}-${seed}-base.json"
            "${gate_dir}/${workload}-${seed}-head.json")
  done
  rc=0
  judge "${workload}" "${files[@]}" || rc=$?
  (( rc <= status )) || status="${rc}"
done
if (( status == 0 )); then
  echo "perf_gate: pass"
else
  echo "perf_gate: FAIL (exit ${status})" >&2
fi
exit "${status}"
