#!/usr/bin/env python3
"""End-to-end recipe benchmark: real `dj_process` runs, one at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--out result.json]
    python3 perfbench/run.py compare BASE.json NEW.json

Run from the root of a source checkout. The first run builds `dj_process`
and `perfbench_probe` into .bench_build/ (see perfbench/CMakeLists.txt).

A run generates the workload's corpus from --seed, writes it with
data::ExportDataset (set-up), makes the naive-plan reference output, warms
up, then runs `dj_process --np 4` in a closed loop with one client for
--seconds. Every output is compared byte for byte with the reference. With
--trace 1 the in-process traced pass (perfbench_probe trace) runs after the
timed loop, at np=4 and np=1, and the per-layer metrics are reported.

The last line of stdout is the JSON result. `compare` reads two --out files
and flags every end-to-end metric that got worse by more than its bound in
BENCHMARK.json. perfbench/NOTES.md explains the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
DJ_PROCESS = os.path.join(BUILD, "dj_tools", "dj_process")
PROBE = os.path.join(BUILD, "perfbench_probe")

NP = 4
WARMUP_RUNS = 2       # the first cold run reads 25-35% slower
MIN_TIMED_RUNS = 5
SETUP_REPEATS = 5     # input exports per run; setup_s takes the median
CACHE_FILLS = 3       # cold cache-filling runs per run (rerun_cached)
TRACE_REPEATS = 3     # traced passes per np; the median pass is reported
MIB = 1 << 20

# Sizes make one dj_process run take roughly 0.5-1.3 s on a 4-core host, so
# a 15 s measurement holds about 12-30 runs.
WORKLOADS = {
    # OP-heavy: 7 mappers, 3 filters + one fused pass, exact dedup.
    "refine_arxiv": {
        "recipe": "configs/recipes/pretrain_arxiv.yaml",
        "gen": {"style": "arxiv", "docs": 12000},
        "input": "in.jsonl", "output": "out.jsonl",
    },
    # Data-plane-heavy: parse, serialize, compress, write; one keep-all OP.
    "pack_web": {
        "recipe": "perfbench/recipes/pack_web.yaml",
        "gen": {"style": "web", "docs": 50000},
        "input": "in.jsonl", "output": "out.djds.djlz",
    },
    # Global dedup: exact + minhash + paragraph over a duplicated corpus.
    "dedup_web": {
        "recipe": "configs/recipes/minimal_dedup.yaml",
        "gen": {"style": "web", "docs": 20000, "exact_dup": 0.1,
                "near_dup": 0.1, "boilerplate": 0.3},
        "input": "in.djds.djlz", "output": "out.jsonl",
    },
    # Full cache hit on all 12 units: read, parse, cache load, to_jsonl.
    "rerun_cached": {
        "recipe": "configs/recipes/pretrain_arxiv.yaml",
        "gen": {"style": "arxiv", "docs": 32000},
        "input": "in.jsonl", "output": "out.jsonl", "cache": True,
    },
}

END_TO_END = [  # name, unit
    ("wall_s", "s"), ("throughput_mib_s", "MiB/s"), ("cpu_s", "s"),
    ("peak_rss_mib", "MiB"), ("setup_s", "s"), ("success_rate", "fraction"),
]

IO_LAYERS = ["data.read", "data.parse", "compress.decompress",
             "data.deserialize", "data.to_jsonl", "data.serialize",
             "compress.compress", "data.write"]
OP_LAYERS = ["ops.mapper", "ops.filter", "ops.dedup"]
LAYERS = IO_LAYERS + ["core.plan", "core.cache"] + OP_LAYERS
WORK_COUNTS = {"core.plan": [("units", "count")],
               "core.cache": [("rows_out", "rows")]}
for _layer in IO_LAYERS:
    WORK_COUNTS[_layer] = [("mib", "MiB")]
for _layer in OP_LAYERS:
    WORK_COUNTS[_layer] = [("rows_in", "rows"), ("rows_out", "rows")]


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for layer in LAYERS:
        spec += [(layer + ".s", "s", "lower"),
                 (layer + ".cpu_s", "s", "lower"),
                 (layer + ".share", "fraction", "lower"),
                 (layer + ".peak_rss_mib", "MiB", "lower"),
                 (layer + ".speedup_np4", "x", "higher")]
        spec += [(layer + "." + c, u, "lower") for c, u in WORK_COUNTS[layer]]
    spec += [("compress.ratio", "x", "higher"),
             ("ops.filter.keep_ratio", "fraction", "higher"),
             ("ops.dedup.keep_ratio", "fraction", "higher"),
             ("core.cache.hit_ratio", "fraction", "higher"),
             ("trace.wall_s", "s", "lower"),
             ("trace.unattributed_s", "s", "lower"),
             ("trace.gap_s", "s", "lower")]
    return spec


def log(msg):
    print(msg, flush=True)


def die(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr, flush=True)
    sys.exit(code)


# ---------------------------------------------------------------- build --

def build():
    if not (os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "tools", "dj_process.cc"))):
        die("no repository sources next to perfbench/ (need src/ and tools/)",
            2)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "dj_process",
                  "perfbench_probe", "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            die("build failed: " + " ".join(cmd))


def probe(*args):
    r = subprocess.run([PROBE] + list(args), stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        die("perfbench_probe %s failed: %s" % (args[0], r.stderr.strip()))
    return json.loads(r.stdout.strip().splitlines()[-1]) if r.stdout else {}


def host_fingerprint():
    fp = probe("host")
    fp["nproc"] = len(os.sched_getaffinity(0))
    return fp


# -------------------------------------------------------------- recipes --

def write_recipe(base, path, overrides):
    """Copies recipe `base` with top-level keys replaced by `overrides`."""
    with open(os.path.join(ROOT, base)) as f:
        lines = f.read().splitlines()
    kept = [ln for ln in lines
            if not any(ln.startswith(k + ":") for k in overrides)]
    for key, value in overrides.items():
        if isinstance(value, bool):
            value = "true" if value else "false"
        kept.append("%s: %s" % (key, value))
    with open(path, "w") as f:
        f.write("\n".join(kept) + "\n")


# ------------------------------------------------------------ child runs --

def run_child(cmd, stderr_path):
    """Runs `cmd` to completion; returns (rc, wall_s, cpu_s, peak_rss_mib)
    from the child's own rusage."""
    with open(stderr_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err)
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, ru.ru_utime + ru.ru_stime,
            ru.ru_maxrss / 1024.0)


def read_bytes(path):
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError:
        return None


def digest(data):
    return "sha256:" + hashlib.sha256(data).hexdigest() if data else "none"


def corrupt(path):
    with open(path, "r+b") as f:
        f.seek(os.path.getsize(path) // 2)
        b = f.read(1)
        f.seek(-1, os.SEEK_CUR)
        f.write(bytes([b[0] ^ 0x5A]))


# ---------------------------------------------------------------- traced --

def layer_metrics(trace4, trace1, wall_s):
    """Per-layer metrics from the median np=4 pass and median np=1 pass."""
    def sums(trace):
        acc = {}
        for sp in trace["spans"]:
            a = acc.setdefault(sp["layer"], {
                "s": 0.0, "cpu_s": 0.0, "peak": 0, "bytes": 0, "packed": 0,
                "rows_in": 0, "rows_out": 0})
            a["s"] += sp["dur_s"]
            a["cpu_s"] += sp["cpu_s"]
            a["peak"] = max(a["peak"], sp["peak_rss_bytes"])
            a["bytes"] += sp["bytes"]
            a["packed"] += sp["packed_bytes"]
            a["rows_in"] += max(sp["rows_in"], 0)
            a["rows_out"] += max(sp["rows_out"], 0)
        return acc

    s4, s1 = sums(trace4), sums(trace1)
    wall = trace4["wall_s"]
    # A layer that does not run on this workload reads 0 throughout.
    m = {name: 0.0 for name, _, _ in per_layer_spec()}
    for layer in LAYERS:
        a = s4.get(layer)
        if a is None:
            continue
        m[layer + ".s"] = a["s"]
        m[layer + ".cpu_s"] = a["cpu_s"]
        m[layer + ".share"] = a["s"] / wall
        m[layer + ".peak_rss_mib"] = a["peak"] / MIB
        b = s1.get(layer)
        m[layer + ".speedup_np4"] = b["s"] / a["s"] if b and a["s"] else 0.0
        for count, _ in WORK_COUNTS[layer]:
            if count == "mib":
                m[layer + ".mib"] = a["bytes"] / MIB
            elif count == "units":
                m[layer + ".units"] = float(a["rows_out"])
            else:
                m[layer + "." + count] = float(a[count])
    packed = sum(s4.get(c, {}).get("packed", 0)
                 for c in ("compress.compress", "compress.decompress"))
    raw = sum(s4.get(c, {}).get("bytes", 0)
              for c in ("compress.compress", "compress.decompress"))
    m["compress.ratio"] = raw / packed if packed else 0.0
    for layer in ("ops.filter", "ops.dedup"):
        a = s4.get(layer)
        m[layer + ".keep_ratio"] = (a["rows_out"] / a["rows_in"]
                                    if a and a["rows_in"] else 0.0)
    m["core.cache.hit_ratio"] = (trace4["cache_hits"] / trace4["plan_units"]
                                 if trace4["plan_units"] else 0.0)
    m["trace.wall_s"] = wall
    m["trace.unattributed_s"] = unattributed(trace4)
    m["trace.gap_s"] = wall_s - wall
    return m


def unattributed(trace):
    """Traced wall minus the top-level spans (all layer spans are
    top-level: each wraps one public call made by the pass itself)."""
    return trace["wall_s"] - sum(sp["dur_s"] for sp in trace["spans"]
                                 if sp["parent"] == "trace")


def median_pass(passes):
    return sorted(passes, key=lambda t: t["wall_s"])[len(passes) // 2]


def traced_passes(recipe, output, reference, path):
    """TRACE_REPEATS traced passes at np=NP and at np=1, keyed by np, and
    whether every pass wrote the reference output."""
    passes, ok = {}, True
    for np_ in (NP, 1):
        passes[np_] = []
        for i in range(TRACE_REPEATS):
            spans = path("spans-%d-%d.json" % (np_, i))
            probe("trace", "--recipe", recipe, "--np", str(np_),
                  "--out", spans)
            with open(spans) as f:
                passes[np_].append(json.load(f))
            ok &= read_bytes(output) == reference
    return passes, ok


def log_layers(m):
    log("traced pass (median of %d at np=%d; speedup vs np=1):"
        % (TRACE_REPEATS, NP))
    for layer in LAYERS:
        if m[layer + ".s"] > 0:
            log("  %-20s %8.4f s  share %5.1f%%  cpu %8.4f s  "
                "peak %7.1f MiB  x%.2f"
                % (layer, m[layer + ".s"], 100 * m[layer + ".share"],
                   m[layer + ".cpu_s"], m[layer + ".peak_rss_mib"],
                   m[layer + ".speedup_np4"]))
    log("  trace.wall_s %.4f, unattributed %.4f, gap %.4f"
        % (m["trace.wall_s"], m["trace.unattributed_s"], m["trace.gap_s"]))


# ------------------------------------------------------------------ run --

def run_workload(args):
    wl = WORKLOADS[args.workload]
    build()
    host = host_fingerprint()
    log("host: " + json.dumps(host, sort_keys=True))

    work = os.path.join(WORK_ROOT, "%s-%d-%d" % (args.workload, args.seed,
                                                 os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return measure(args, wl, host, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


def measure(args, wl, host, work):
    path = lambda name: os.path.join(work, name)  # noqa: E731
    in_path, out_path = path(wl["input"]), path(wl["output"])
    ref_path = path("ref." + wl["output"].split(".", 1)[1])
    cache_dir = path("cache")

    # Set-up 1: corpus generation (untimed), then SETUP_REPEATS exports.
    g = wl["gen"]
    gen = probe("gen", "--style", g["style"], "--docs", str(g["docs"]),
                "--seed", str(args.seed),
                "--exact-dup", str(g.get("exact_dup", 0)),
                "--near-dup", str(g.get("near_dup", 0)),
                "--boilerplate", str(g.get("boilerplate", 0)),
                "--np", str(NP), "--repeat", str(SETUP_REPEATS),
                "--out", in_path)
    setup_s = statistics.median(gen["export_s"])
    input_mib = gen["bytes"] / MIB
    log("workload %s: seed %d, input %d rows, %.3f MiB (%s)"
        % (args.workload, args.seed, gen["rows"], input_mib, wl["input"]))

    # Reference output: the naive plan (np=1, no fusion/reorder, no cache).
    ref_recipe = path("ref.yaml")
    write_recipe(wl["recipe"], ref_recipe, {
        "dataset_path": in_path, "export_path": ref_path, "np": 1,
        "op_fusion": False, "op_reorder": False, "use_cache": False})
    rc, _, _, _ = run_child([DJ_PROCESS, "--recipe", ref_recipe],
                            path("ref.stderr"))
    reference = read_bytes(ref_path) if rc == 0 else None
    if not reference:
        die("reference run failed (rc=%d): see %s" % (rc, path("ref.stderr")))

    overrides = {"dataset_path": in_path, "export_path": out_path, "np": NP}
    if wl.get("cache"):
        overrides.update({"use_cache": True, "cache_compression": True,
                          "cache_dir": cache_dir})
    recipe = path("run.yaml")
    write_recipe(wl["recipe"], recipe, overrides)
    cmd = [DJ_PROCESS, "--recipe", recipe]
    if args.np:
        cmd += ["--np", str(args.np)]

    def one_run():
        if os.path.exists(out_path):
            os.remove(out_path)
        return run_child(cmd, path("run.stderr"))

    def output_ok(rc):
        return rc == 0 and read_bytes(out_path) == reference

    # Set-up 2 (rerun_cached): cold runs that fill the cache. The cache and
    # input paths stay fixed from here on; the cache key hashes the path.
    setup_ok = True
    if wl.get("cache"):
        fills = []
        for _ in range(CACHE_FILLS):
            shutil.rmtree(cache_dir, ignore_errors=True)
            rc, wall, _, _ = one_run()
            setup_ok &= output_ok(rc)
            fills.append(wall)
        setup_s += statistics.median(fills)

    for _ in range(WARMUP_RUNS):
        rc, _, _, _ = one_run()
        setup_ok &= output_ok(rc)

    runs = []
    start = time.perf_counter()
    while (len(runs) < MIN_TIMED_RUNS
           or time.perf_counter() - start < args.seconds):
        rc, wall, cpu, rss = one_run()
        if args.corrupt_run == len(runs) and os.path.exists(out_path):
            corrupt(out_path)
        ok = output_ok(rc)
        runs.append({"rc": rc, "wall_s": wall, "cpu_s": cpu,
                     "peak_rss_mib": rss, "ok": ok})
    last_output = read_bytes(out_path)

    good = [r for r in runs if r["ok"]] or runs
    failed = sum(1 for r in runs if not r["ok"])
    wall_s = statistics.median(r["wall_s"] for r in good)
    e2e = {
        "wall_s": wall_s,
        "throughput_mib_s": input_mib / wall_s,
        "cpu_s": statistics.median(r["cpu_s"] for r in good),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in good),
        "setup_s": setup_s,
        "success_rate": (len(runs) - failed) / len(runs),
    }
    log("reference %s, last output %s" % (digest(reference),
                                          digest(last_output)))
    log("timed runs %d, failed %d, error_rate %.4f (closed loop, 1 client, "
        "np=%d)" % (len(runs), failed, failed / len(runs), args.np or NP))
    for name, unit in END_TO_END:
        log("  %-18s %12.6f %s" % (name, e2e[name], unit))

    result = {
        "workload": args.workload, "seed": args.seed, "np": args.np or NP,
        "host": host, "input_rows": gen["rows"], "input_mib": input_mib,
        "reference_digest": digest(reference),
        "output_digest": digest(last_output),
        "runs": runs, "attempted": len(runs), "failed": failed,
        "error_rate": failed / len(runs), "end_to_end": e2e,
    }
    correct = setup_ok and failed == 0

    if args.trace:
        trace_out = path("trace." + wl["output"].split(".", 1)[1])
        trace_recipe = path("trace.yaml")
        write_recipe(wl["recipe"], trace_recipe,
                     dict(overrides, export_path=trace_out))
        passes, traced_ok = traced_passes(trace_recipe, trace_out, reference,
                                          path)
        correct &= traced_ok
        layers = layer_metrics(median_pass(passes[NP]),
                               median_pass(passes[1]), wall_s)
        result["trace_passes"] = passes
        result["per_layer"] = layers
        log_layers(layers)
        metrics = {n: {"value": layers[n], "unit": u}
                   for n, u, _ in per_layer_spec()}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END}

    result["correct"] = correct
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1, sort_keys=True)
    return {"correct": correct, "attempted": len(runs), "failed": failed,
            "metrics": metrics}


# -------------------------------------------------------------- compare --

HOST_KEYS = ("nproc", "hardware_concurrency", "simd_level", "build_type")
CALIBRATION_TOLERANCE = 0.25


def compare(base_path, new_path):
    """Flags end-to-end metrics of NEW worse than BASE by more than their
    BENCHMARK.json bound. Exit 1 on a regression, 2 on a host mismatch."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    with open(base_path) as f:
        base = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    mismatch = [k for k in HOST_KEYS if base["host"].get(k) != new["host"].get(k)]
    cb, cn = base["host"]["calibration_mops"], new["host"]["calibration_mops"]
    if abs(cn - cb) > CALIBRATION_TOLERANCE * cb:
        mismatch.append("calibration_mops")
    if mismatch:
        print("host mismatch (%s): not compared" % ", ".join(mismatch))
        return 2
    if base["workload"] != new["workload"]:
        print("workload mismatch: %s vs %s" % (base["workload"],
                                               new["workload"]))
        return 2
    worse = 0
    for name, m in spec.items():
        b, n = base["end_to_end"][name], new["end_to_end"][name]
        change = (n - b) / b if b else 0.0
        loss = change if m["better"] == "lower" else -change
        verdict = "WORSE" if loss > m["bound"] else (
            "better" if loss < -m["bound"] else "same")
        worse += verdict == "WORSE"
        print("%-18s %12.6f %12.6f %+8.2f%%  bound %4.1f%%  %s"
              % (name, b, n, 100 * change, 100 * m["bound"], verdict))
    return 1 if worse else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            die("usage: run.py compare BASE.json NEW.json", 2)
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write the detailed result JSON here")
    p.add_argument("--np", type=int, default=0,
                   help="override np of the timed runs (a degraded run)")
    p.add_argument("--corrupt-run", type=int, default=-1,
                   help="flip a byte in the output of this timed run")
    args = p.parse_args()
    print(json.dumps(run_workload(args)), flush=True)


if __name__ == "__main__":
    main()
