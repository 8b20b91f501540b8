"""charmod benchmark: every workload under the pure and the compiled kernel.

Run from the repository root::

    python3 perfbench/run.py --workload battery --seed 7 --seconds 20 --trace 0

Workloads (see ``workloads.py`` for why each exists): ``battery``, ``wide``
and ``cli``.  The compiled kernel is built once per content hash of
``src/charmod/kernel/_fast.c`` into ``.bench_build/`` with gcc, outside the
timed set-up.  Every pass runs in a fresh interpreter, one at a time, so
no memo survives from one pass into the next.

``--trace 0`` alternates compiled and pure passes until ``--seconds`` have
gone, then reports the end-to-end metrics: ``setup_s`` (median of several
cold imports plus input generation), ``wall_s.<backend>`` (median pass),
``item_ms.p50.<backend>`` and ``item_ms.tail.<backend>`` (over the items'
median times; the tail is the highest percentile with at least ten items
beyond it, or the slowest item when there are fewer than eleven) and
``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced compiled
passes and reports the per-layer metrics of ``tracing.py``, with the
tracing overhead.  Each output is checked (see ``workloads.py``), every
pass must produce the same report digests, and a compiled pass that is
not running the compiled kernel fails all its items.

Times are scaled to a nominal machine speed (see ``REF_NOMINAL_S``); the
raw medians and the scale factors are kept in the result file.

The last line of standard output is the JSON result; the lines before it
name every metric with its unit.  A fuller record with provenance goes to
``.bench_build/perfbench/``.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import sysconfig
import time
from pathlib import Path

from worker import PROBE_INTERVAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"
KERNEL_C = ROOT / "src" / "charmod" / "kernel" / "_fast.c"
WORKLOADS = ("battery", "wide", "cli")
BACKENDS = ("compiled", "pure")
SETUP_SAMPLES = 7
# every pass must end by then, so a run ends within 180 s after the build
RUN_DEADLINE_S = 170
# the tail is the highest percentile with this many items beyond it
TAIL_BEYOND = 10
# Seconds ``worker.reference_work`` takes on a 2-core x86-64 box (Python
# 3.11) with nothing contending for it.  Every reported time is scaled by
# REF_NOMINAL_S / (the reference's time, timed every 0.1 s through the same
# pass): that box's speed drifts by 1.5x for tens of seconds when its
# neighbours load it, and the scaling takes the drift out of the comparison.
REF_NOMINAL_S = 0.0015


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tool_version(cmd):
    try:
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return res.stdout.splitlines()[0] if res.stdout else "unavailable"


def build_kernel():
    """Compile ``_fast.c`` once per content hash; None if it cannot be built."""
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    key = hashlib.sha256(KERNEL_C.read_bytes() + suffix.encode()).hexdigest()[:16]
    target = OUT / f"kernel-{key}" / f"_fast{suffix}"
    if target.exists():
        return target
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    cmd = ["gcc", "-O3", "-fwrapv", "-DNDEBUG", "-fPIC", "-shared",
           f"-I{sysconfig.get_paths()['include']}", str(KERNEL_C), "-o", str(tmp)]
    try:
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    except (OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: kernel build failed: {exc}", file=sys.stderr)
        return None
    if res.returncode != 0:
        print(f"perfbench: kernel build failed:\n{res.stderr[-2000:]}", file=sys.stderr)
        tmp.unlink(missing_ok=True)
        return None
    os.replace(tmp, target)
    return target


def run_pass(workload, seed, backend, kernel, deadline, trace=False,
             setup_only=False, spans_out=None):
    spec = {"workload": workload, "seed": seed, "backend": backend,
            "kernel": str(kernel) if kernel else None, "trace": trace,
            "setup_only": setup_only, "spans_out": str(spans_out)}
    env = dict(os.environ, PYTHONHASHSEED="0", CHARMOD_THREADS="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    res = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                         cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=max(1.0, deadline - time.monotonic()))
    if res.returncode != 0:
        fail(f"{backend} pass of {workload} exited {res.returncode}:\n"
             f"{res.stderr[-3000:]}")
    result = json.loads(res.stdout.strip().splitlines()[-1])
    result["claimed"] = backend
    return result


def tail(values):
    """(value, percentile) of the highest percentile with TAIL_BEYOND beyond."""
    s = sorted(values)
    rank = len(s) - TAIL_BEYOND if len(s) > TAIL_BEYOND else len(s)
    return s[rank - 1], 100.0 * rank / len(s)


def check_passes(passes):
    """Count ops and failures; every pass must match the first's digests."""
    ref = [row["digest"] for row in passes[0]["items"]]
    attempted = failed = 0
    errors = []
    for ps in passes:
        wrong_backend = ps["backend"] != ps["claimed"]
        if wrong_backend:
            errors.append(f"{ps['claimed']} pass ran the {ps['backend']} kernel")
        for row, want in zip(ps["items"], ref):
            attempted += 1
            bad = row["error"] or (None if row["digest"] == want else
                                   "report differs from the first pass")
            if bad:
                errors.append(f"{ps['claimed']} {row['id']}: {bad}")
            failed += bool(bad or wrong_backend)
    return attempted, failed, errors


def rounds_for(seconds):
    """Yield round numbers until ``seconds`` are used up, at least one.

    A round starts only if it should end less than half a round late.
    """
    t0 = time.monotonic()
    rounds = 0
    while True:
        r0 = time.monotonic()
        yield rounds
        rounds += 1
        took = time.monotonic() - r0
        if time.monotonic() - t0 + took / 2 >= seconds:
            return


def speed(run, within=None):
    """Factor scaling a pass's times to the nominal reference speed.

    The reference is timed at even intervals, so the mean of the factors
    weighs each stretch of the pass by its length.  ``within`` limits the
    mean to the samples taken during one item, or next to it.
    """
    refs = run["refs"]
    if within is not None:
        a, b = within[0] - PROBE_INTERVAL_S, within[1] + PROBE_INTERVAL_S
        refs = [r for r in refs if a <= r[0] <= b] or refs
    return statistics.fmean(REF_NOMINAL_S / t for _, t in refs)


def end_to_end(workload, seed, seconds, kernel, deadline):
    setup_runs = [run_pass(workload, seed, "compiled", kernel, deadline,
                           setup_only=True) for _ in range(SETUP_SAMPLES)]
    passes = []
    for r in rounds_for(seconds):
        order = BACKENDS if r % 2 == 0 else BACKENDS[::-1]
        passes += [run_pass(workload, seed, b, kernel, deadline) for b in order]
    setups = [r["setup_s"] * speed(r) for r in setup_runs]
    metrics = {"setup_s": (statistics.median(setups), "s")}
    detail = {"rounds": len(passes) // 2, "setup_s_samples": setups,
              "raw_setup_s": statistics.median(r["setup_s"] for r in setup_runs)}
    for b in BACKENDS:
        mine = [p for p in passes if p["claimed"] == b]
        factors = [speed(p) for p in mine]
        per_item = [statistics.median(p["items"][i]["s"] * speed(p, p["items"][i]["span"])
                                      for p in mine) * 1e3
                    for i in range(len(mine[0]["items"]))]
        walls = [p["wall_s"] * f for p, f in zip(mine, factors)]
        value, pct = tail(per_item)
        metrics[f"wall_s.{b}"] = (statistics.median(walls), "s")
        metrics[f"item_ms.p50.{b}"] = (statistics.median(per_item), "ms")
        metrics[f"item_ms.tail.{b}"] = (value, "ms")
        detail[f"{b}.items"] = len(per_item)
        detail[f"{b}.tail_percentile"] = pct
        detail[f"{b}.wall_s_samples"] = walls
        detail[f"{b}.raw_wall_s"] = statistics.median(p["wall_s"] for p in mine)
        detail[f"{b}.speed"] = statistics.median(factors)
    metrics["peak_rss_mb"] = (max(p["peak_rss_mb"] for p in passes), "MB")
    return metrics, passes, detail


def per_layer(workload, seed, seconds, kernel, deadline):
    passes, traced = [], []
    for r in rounds_for(seconds):
        passes.append(run_pass(workload, seed, "compiled", kernel, deadline))
        spans = OUT / f"spans-{workload}-{seed}-{r}.npz"
        traced.append(run_pass(workload, seed, "compiled", kernel, deadline,
                               trace=True, spans_out=spans))
    import tracing
    metrics = {}
    for name in tracing.metric_names():
        unit = ("s" if name.endswith("_s") else
                "ratio" if name.endswith("_ratio") else "count")
        if unit == "s":
            value = statistics.median(p["layers"][name] * speed(p) for p in traced)
        else:  # counts repeat exactly; ratios of counts too
            value = statistics.median_low(p["layers"][name] for p in traced)
        metrics[name] = (value, unit)
    wall = statistics.median(p["wall_s"] * speed(p) for p in passes)
    wall_traced = statistics.median(p["wall_s"] * speed(p) for p in traced)
    metrics["trace.wall_s"] = (wall_traced, "s")
    metrics["trace.untraced_wall_s"] = (wall, "s")
    metrics["trace.overhead_s"] = (wall_traced - wall, "s")
    metrics["trace.self_sum_s"] = (
        statistics.median(p["span_self_sum_s"] * speed(p) for p in traced), "s")
    detail = {"rounds": len(traced), "spans": traced[0]["spans"],
              "speed": statistics.median(speed(p) for p in passes + traced)}
    return metrics, passes + traced, detail


def provenance(seed, passes):
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = tool_version(["git", "-C", str(ROOT), "rev-parse", "HEAD"])
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "gcc": tool_version(["gcc", "--version"]),
            "fast_c_sha256": sha256(KERNEL_C), "commit": commit, "seed": seed,
            "backends": [[p["claimed"], p["backend"]] for p in passes]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "charmod" / "__init__.py").is_file() or not KERNEL_C.is_file():
        fail(f"no charmod source tree under {ROOT}; run from a checkout")
    OUT.mkdir(parents=True, exist_ok=True)
    kernel = build_kernel()
    deadline = time.monotonic() + RUN_DEADLINE_S

    measure = per_layer if args.trace else end_to_end
    metrics, passes, detail = measure(args.workload, args.seed, args.seconds,
                                      kernel, deadline)
    attempted, failed, errors = check_passes(passes)
    record = {"workload": args.workload, "trace": args.trace,
              "provenance": provenance(args.seed, passes), "detail": detail,
              "errors": errors, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    path = OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    for err in errors[:20]:
        print(f"FAILED {err}")
    for k, (v, u) in metrics.items():
        print(f"{k:<44} {v:>14.6g} {u}")
    print(f"{'ops':<44} {attempted:>14} count")
    print(f"{'ops_failed':<44} {failed:>14} count")
    print(f"detail: {json.dumps(detail)}")
    print(f"provenance: {json.dumps(record['provenance'])}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))


if __name__ == "__main__":
    main()
