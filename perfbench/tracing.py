"""Spans around the calls into each layer of charmod, for the traced run.

``Tracer.install()`` replaces every binding of a traced public function, in
every loaded ``charmod`` module and in module-level dicts such as the CLI's
checker table, by a wrapper that records a span: name, start, end, parent
span and item.  ``make_reducer`` returns a proxy whose ``nf``, ``nf_q``,
``find_reducer`` and ``append`` are spans of the ``kernel`` layer; calls a
reducer makes to itself (the pure ``nf`` probing ``find_reducer``) are not.

Spans stay in memory, in flat arrays, and are summarised and written out
when the run ends.  A span's self time is its duration minus the durations
of its children; spans nest strictly because the workload is one thread.
A layer's total time adds the durations of its outermost spans, so it
includes everything the layer called.  The worker's speed probe (about 1.5%
of the time) runs inside whichever span is open.
"""

import gc
import sys
import types
from array import array
from time import perf_counter

import numpy as np

TRACED = {
    "kernel": ("scaled_merge", "make_reducer"),
    "groebner": ("buchberger", "syzygy_generators", "express_in_basis"),
    "resolution": ("resolve",),
    "homology": ("monomial_okeys", "module_basis", "hilbert_function_basis",
                 "iso_probe", "hom_module", "tensor_module", "subquotient",
                 "homology_at"),
    "invariants": ("q_resolution", "hilbert_series_leads"),
    "characteristic": ("quasi_canonical", "char_module", "cochar_module",
                       "char_via_hom", "cochar_via_tensor", "check_thm8",
                       "check_type_formula", "split_identity_check"),
    "linalg": ("rank",),
    "cmr": ("parse",),
    "cli": ("main",),
    "corpus": ("corpus_battery",),
}
REDUCER_METHODS = ("nf", "nf_q", "find_reducer", "append")
ITEM_SPAN = "bench.item"
# cache-backed calls: a call that reached no resolve counts as a hit
HIT_RATIO = ("invariants.q_resolution", "characteristic.quasi_canonical")
# a layer each workload cannot do without; 0 calls means the tracing missed it
BUSY = {"wide": "kernel.nf", "battery": "homology.iso_probe", "cli": "cmr.parse"}


def span_names():
    names = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]
    names += [f"kernel.{m}" for m in REDUCER_METHODS]
    return names + [ITEM_SPAN]


def metric_names():
    """Every per-layer metric a traced run reports, in a fixed order."""
    out = []
    for name in span_names():
        out += [f"{name}.calls", f"{name}.self_s", f"{name}.total_s"]
    out += ["kernel.nf.basis_len_mean", "kernel.nf.pure_ratio",
            "groebner.buchberger.gb_len", "homology.monomial_okeys.monomials",
            "resolution.resolve.steps"]
    out += [f"{name}.hit_ratio" for name in HIT_RATIO]
    return out


class Tracer:
    def __init__(self):
        self.names = span_names()
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.item = array("l")
        self.stack = [-1]
        self.current = [-1]  # index of the item being run
        self.counts = dict.fromkeys(("nf_basis_len", "nf_pure", "gb_len",
                                     "monomials", "steps", "resolves"), 0)
        self.hits = dict.fromkeys(HIT_RATIO, 0)
        self.originals = {}

    # -- recording ---------------------------------------------------------
    def traced(self, name, fn):
        """``fn`` recording one span per call (inlined: it runs ~10^5 times)."""
        nid = self.name_id[name]
        add_name, add_parent, add_item = (self.name.append, self.parent.append,
                                          self.item.append)
        start, end = self.start, self.end
        add_start, add_end = start.append, end.append
        stack = self.stack
        push, pop = stack.append, stack.pop
        current = self.current

        def spanned(*args, **kwargs):
            idx = len(start)
            add_name(nid)
            add_parent(stack[-1])
            add_item(current[0])
            add_end(0.0)
            push(idx)
            add_start(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                pop()
        return spanned

    def _wrap(self, name, fn):
        t = self.traced(name, fn)
        counts = self.counts
        if name == "groebner.buchberger":
            def wrapper(*args, **kwargs):
                gb = t(*args, **kwargs)
                counts["gb_len"] += len(gb)
                return gb
        elif name == "homology.monomial_okeys":
            def wrapper(*args, **kwargs):
                out = t(*args, **kwargs)
                counts["monomials"] += len(out)
                return out
        elif name == "resolution.resolve":
            def wrapper(*args, **kwargs):
                counts["resolves"] += 1
                res = t(*args, **kwargs)
                counts["steps"] += res.length
                return res
        elif name in HIT_RATIO:
            hits = self.hits

            def wrapper(*args, **kwargs):
                before = counts["resolves"]
                out = t(*args, **kwargs)
                hits[name] += counts["resolves"] == before
                return out
        elif name == "kernel.make_reducer":
            def wrapper(*args, **kwargs):
                return ReducerProxy(self, t(*args, **kwargs))
        else:
            wrapper = t
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- patching ------------------------------------------------------------
    def install(self):
        """Rebind every reference to a traced function to its wrapper."""
        modules = _charmod_modules()
        wrappers = {}
        for mod, fns in TRACED.items():
            home = sys.modules["charmod." + mod]
            for fn in fns:
                orig = getattr(home, fn)
                self.originals[f"{mod}.{fn}"] = orig
                wrappers[id(orig)] = self._wrap(f"{mod}.{fn}", orig)
        for module in modules:
            for ns in [vars(module)] + [v for v in vars(module).values()
                                        if isinstance(v, dict)]:
                for key, value in list(ns.items()):
                    w = wrappers.get(id(value))
                    if w is not None:
                        ns[key] = w

    def unwrapped_bindings(self):
        """Places still holding a traced function itself (must be empty)."""
        left = []
        for name in self.originals:  # items() would hold (name, orig) itself
            orig = self.originals[name]
            for ref in gc.get_referrers(orig):
                if (isinstance(ref, (types.CellType, types.FrameType))
                        or ref is self.originals):
                    continue
                left.append(f"{name} held by {type(ref).__name__}"
                            f" {_describe(ref)}")
        return left

    # -- summary -------------------------------------------------------------
    def summary(self):
        """Per-layer calls, self seconds and ratios; plus span totals."""
        names = np.frombuffer(self.name, dtype=np.uint16).astype(np.int64)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        selfs = np.bincount(names, weights=self_s, minlength=k)
        outer = _outermost(self.name, self.parent)
        totals = np.bincount(names[outer], weights=dur[outer], minlength=k)
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(selfs[i])
            out[f"{name}.total_s"] = float(totals[i])
        nf_calls = out["kernel.nf.calls"]
        c = self.counts
        out["kernel.nf.basis_len_mean"] = c["nf_basis_len"] / nf_calls if nf_calls else 0.0
        out["kernel.nf.pure_ratio"] = c["nf_pure"] / nf_calls if nf_calls else 0.0
        out["groebner.buchberger.gb_len"] = c["gb_len"]
        out["homology.monomial_okeys.monomials"] = c["monomials"]
        out["resolution.resolve.steps"] = c["steps"]
        for name in HIT_RATIO:
            n = out[f"{name}.calls"]
            out[f"{name}.hit_ratio"] = self.hits[name] / n if n else 0.0
        return out, float(self_s.sum())

    def save(self, path):
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            item=np.frombuffer(self.item, dtype=np.int64))


class ReducerProxy:
    """A reducer whose public methods are ``kernel`` spans."""

    __slots__ = ("_inner",) + REDUCER_METHODS

    def __init__(self, tracer, inner):
        from charmod.kernel import pure
        self._inner = inner
        for m in ("nf_q", "find_reducer", "append"):
            setattr(self, m, tracer.traced(f"kernel.{m}", getattr(inner, m)))
        nf = tracer.traced("kernel.nf", inner.nf)
        counts = tracer.counts
        is_pure = isinstance(inner, pure.Reducer)

        def counted_nf(v):
            counts["nf_basis_len"] += len(inner)
            counts["nf_pure"] += is_pure
            return nf(v)
        self.nf = counted_nf

    def __len__(self):
        return len(self._inner)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _outermost(name, parent):
    """Mask of spans with no ancestor of the same name.

    Their durations add up to a layer's inclusive time without counting
    recursive calls twice.  Spans are stored in start order, so a parent
    always precedes its children.
    """
    above = [0] * len(name)  # bit set of the names on the path above a span
    keep = np.ones(len(name), dtype=bool)
    for i, (nm, par) in enumerate(zip(name, parent)):
        if par >= 0:
            mask = above[par] | (1 << name[par])
            above[i] = mask
            if mask >> nm & 1:
                keep[i] = False
    return keep


def _charmod_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "charmod" or name.startswith("charmod."))]


def _describe(ref):
    if isinstance(ref, dict):
        for module in _charmod_modules():
            if vars(module) is ref:
                return f"(globals of {module.__name__})"
        return f"(keys {sorted(map(str, ref))[:5]})"
    return ""
