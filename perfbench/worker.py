"""One benchmark pass in a fresh interpreter.

Usage: ``python3 perfbench/worker.py '<json spec>'`` from the repository
root, where the spec names the workload, the seed, the backend (``pure`` or
``compiled``), the compiled kernel's path, whether to trace, and whether to
stop after set-up.  Prints one JSON line: set-up and wall time, per-item
times, digests and errors, peak RSS and, when traced, the per-layer
summary.  Every pass starts cold, because ``charmod`` keeps process-wide
memos (``invariants._monomial_numerator`` is an unbounded ``lru_cache``).
"""

import hashlib
import importlib.machinery
import importlib.util
import json
import resource
import signal
import sys
import time
from pathlib import Path

KERNEL_MODULE = "charmod.kernel._fast"
# reference timings taken before and after the measured part of a pass
REF_EDGE = 5
# seconds between reference timings while the items run
PROBE_INTERVAL_S = 0.1


class KernelFinder:
    """Serves ``charmod.kernel._fast`` from a built file, or refuses it.

    With ``path`` None the import fails, so the package selects the pure
    kernel even if an extension was built inside the source tree.
    """

    def __init__(self, path):
        self.path = path

    def find_spec(self, name, target_path=None, target=None):
        if name != KERNEL_MODULE:
            return None
        if self.path is None:
            raise ImportError("compiled kernel disabled for this pass")
        loader = importlib.machinery.ExtensionFileLoader(name, self.path)
        return importlib.util.spec_from_file_location(name, self.path, loader=loader)


def reference_work():
    """Fixed pure-Python work that shares no code with charmod.

    It allocates no containers, so the program's heap and garbage collector
    do not change its time; only the machine's current speed does.
    """
    slots = [0] * 512
    acc = 0
    for i in range(10000):
        j = i * 7919 & 511
        slots[j] = (slots[j] * 31 + i) % 1000003
        acc ^= slots[j]
    return acc


def reference_sample():
    """(start, seconds) of one run of the reference work: the machine's speed."""
    t = time.perf_counter()
    reference_work()
    return t, time.perf_counter() - t


class SpeedProbe:
    """Times the reference work every PROBE_INTERVAL_S while items run.

    The timer signal interrupts the item between two bytecodes; ``spent``
    is the time the probe took, which the caller subtracts from its own.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        sample = reference_sample()
        self.samples.append(sample)
        self.spent += sample[1]

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def digest(report) -> str:
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main(spec):
    refs = [reference_sample() for _ in range(REF_EDGE)]
    t0 = time.perf_counter()
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    sys.meta_path.insert(0, KernelFinder(
        spec["kernel"] if spec["backend"] == "compiled" else None))
    from charmod.kernel import backend_name
    import workloads
    items = workloads.build(spec["workload"], spec["seed"], root)
    setup_s = time.perf_counter() - t0
    out = {"backend": backend_name(), "setup_s": setup_s}
    if spec["setup_only"]:
        out["refs"] = refs + [reference_sample() for _ in range(REF_EDGE)]
        return out

    tracer = None
    if spec["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        left = tracer.unwrapped_bindings()
        if left:
            raise SystemExit("traced names left unwrapped: " + "; ".join(left))

    rows = []
    with SpeedProbe() as probe:
        w0 = time.perf_counter()
        for i, item in enumerate(items):
            spent = probe.spent
            a = time.perf_counter()
            try:
                if tracer is None:
                    report, error = item.run()
                else:
                    tracer.current[0] = i
                    report, error = tracer.traced(tracing.ITEM_SPAN, item.run)()
            except Exception as exc:  # an item that raises is a failed op
                report, error = None, f"{type(exc).__name__}: {exc}"
            b = time.perf_counter()
            rows.append({"id": item.id, "s": b - a - (probe.spent - spent),
                         "span": [a, b], "error": error, "digest": digest(report)})
        out["wall_s"] = time.perf_counter() - w0 - probe.spent
    out["items"] = rows
    out["refs"] = refs + probe.samples + [reference_sample() for _ in range(REF_EDGE)]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        layers, self_sum = tracer.summary()
        out["layers"] = layers
        out["span_self_sum_s"] = self_sum
        out["spans"] = len(tracer.start)
        tracer.save(spec["spans_out"])
        busy = tracing.BUSY[spec["workload"]]
        if layers[f"{busy}.calls"] == 0:
            raise SystemExit(f"layer {busy} shows 0 calls on {spec['workload']}")
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
