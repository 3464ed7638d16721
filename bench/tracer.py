"""Span tracing of walshlab from outside the program.

``Tracer.install`` replaces every binding of each target function in
walshlab's loaded modules with a wrapper: module attributes (including
the copies that ``from ... import`` made in other modules and the
package namespace) and class attributes for methods.  ``uninstall``
puts the originals back, and ``unwrapped_bindings`` audits through the
garbage collector that nothing else still holds an original.

Each wrapped call records a span (target, start, end, parent span, op
id) in flat in-memory arrays, plus work counts computed from its
arguments and result.  A span's self time is its duration minus the
durations of its direct children; time spent in functions that are
not targets is charged to the nearest target below which it ran.
"""

from __future__ import annotations

import functools
import gc
import gzip
import inspect
import sys
from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

LAYERS = ("cli", "experiments", "blocks", "olevskii", "greedy", "norms", "spectra")


def _k_band(get) -> int:
    k = get(0, "k")
    return k * (1 << k)


@dataclass(frozen=True)
class Target:
    """One wrapped function: metric prefix, where it lives, what it counts.

    ``count(get, result)`` returns a dict of work counts; ``get(i, name)``
    fetches positional argument i or keyword ``name``.  ``counted_arg``
    names an argument index whose iterable is counted as it is consumed,
    reported as ``entries_in``-style counter ``counted_as``.
    """

    layer: str
    name: str
    module: str
    attr: str
    counters: tuple[str, ...] = ()
    count: Callable | None = None
    counted_arg: int | None = None
    counted_as: str = ""

    @property
    def metric(self) -> str:
        return f"{self.layer}.{self.name}"


TARGETS = (
    Target("cli", "main", "walshlab.cli", "main"),
    Target("experiments", "run_experiment", "walshlab.experiments", "run_experiment"),
    Target("experiments", "config_from_dict", "walshlab.experiments",
           "ExperimentConfig.from_dict"),
    Target("experiments", "derive_seed", "walshlab.experiments", "derive_seed"),
    Target("experiments", "write_records_csv", "walshlab.experiments", "write_records_csv",
           ("rows",), lambda get, r: {"rows": len(get(0, "records"))}),
    Target("experiments", "corpus_with_coefficients", "walshlab.experiments",
           "corpus_with_coefficients", ("functions",), lambda get, r: {"functions": len(r)}),
    Target("blocks", "weighted_spectrum", "walshlab.blocks", "BlockPlan.weighted_spectrum",
           ("entries_in", "terms_out"), lambda get, r: {"terms_out": len(r)},
           counted_arg=1, counted_as="entries_in"),
    Target("blocks", "symbol_frequencies", "walshlab.blocks", "BlockPlan.symbol_frequencies",
           ("symbols",), lambda get, r: {"symbols": len(r)}),
    Target("olevskii", "rmatvec", "walshlab.olevskii", "rmatvec",
           ("band_entries",), lambda get, r: {"band_entries": _k_band(get)}),
    Target("olevskii", "matvec", "walshlab.olevskii", "matvec",
           ("band_entries",), lambda get, r: {"band_entries": _k_band(get)}),
    Target("greedy", "analyze", "walshlab.greedy", "analyze",
           ("terms_in",), lambda get, r: {"terms_in": len(get(0, "f"))}),
    Target("greedy", "greedy_order", "walshlab.greedy", "greedy_order",
           ("terms_in",), lambda get, r: {"terms_in": len(get(0, "coeffs"))}),
    Target("greedy", "partial_sum", "walshlab.greedy", "partial_sum",
           ("terms_in",), lambda get, r: {"terms_in": len(get(0, "f"))}),
    Target("greedy", "synthesize_coefficients", "walshlab.greedy", "synthesize_coefficients",
           ("terms_in",), lambda get, r: {"terms_in": len(get(0, "coeffs"))}),
    Target("norms", "lp_even_spectral", "walshlab.norms", "lp_even_spectral",
           ("p2.terms_in", "p4.terms_in", "p6.terms_in"),
           lambda get, r: {f"p{get(1, 'p')}.terms_in": len(get(0, "f"))}),
    Target("norms", "lp_monte_carlo", "walshlab.norms", "lp_monte_carlo",
           ("samples", "sample_terms"),
           lambda get, r: {"samples": get(2, "samples"),
                           "sample_terms": get(2, "samples") * len(get(0, "f"))}),
    Target("norms", "lp_dense", "walshlab.norms", "lp_dense",
           ("cells",), lambda get, r: {"cells": 1 << get(0, "f").depth()}),
    Target("spectra", "WalshSpectrum.init", "walshlab.spectra", "WalshSpectrum.__init__",
           ("terms_in",), counted_arg=1, counted_as="terms_in"),
    Target("spectra", "spectrum_add", "walshlab.spectra", "spectrum_add",
           ("terms_in",), lambda get, r: {"terms_in": len(get(0, "f")) + len(get(1, "g"))}),
    Target("spectra", "spectrum_scale", "walshlab.spectra", "spectrum_scale"),
    Target("spectra", "synthesize", "walshlab.spectra", "synthesize",
           ("cells",), lambda get, r: {"cells": 1 << get(1, "depth")}),
)


# Written before measuring: per-layer metric -> (end-to-end metrics it
# should move, workloads that exercise it, whether it stays at zero on
# every other workload).  The self-tests hold the code to the last two.
PREDICTIONS = {
    "cli.main.self_s": (("op_p50_ms",), ("democracy-p4",), False),
    "experiments.run_experiment.self_s": (("ops_per_s",), ("democracy-p4",), False),
    "experiments.derive_seed.calls": (("ops_per_s",), ("democracy-p4",), False),
    "experiments.write_records_csv.rows": (("ops_per_s",), ("democracy-p4",), False),
    "experiments.corpus_with_coefficients.self_s": (("ops_per_s",), ("greedy-corpus",), True),
    "blocks.weighted_spectrum.entries_in": (
        ("ops_per_s", "op_p50_ms"), ("democracy-p4", "greedy-corpus"), False),
    "blocks.weighted_spectrum.terms_out": (
        ("ops_per_s", "op_p50_ms"), ("democracy-p4", "greedy-corpus"), False),
    "blocks.symbol_frequencies.symbols": (
        ("ops_per_s", "op_p50_ms"), ("democracy-p4", "greedy-corpus"), False),
    "olevskii.rmatvec.band_entries": (("ops_per_s",), ("democracy-p4",), False),
    "olevskii.matvec.band_entries": (("ops_per_s",), ("greedy-corpus",), True),
    "greedy.analyze.terms_in": (("ops_per_s",), ("greedy-corpus",), True),
    "greedy.greedy_order.calls": (("ops_per_s",), ("greedy-corpus",), True),
    "greedy.partial_sum.calls": (("ops_per_s",), ("greedy-corpus",), True),
    "greedy.synthesize_coefficients.calls": (("ops_per_s",), ("greedy-corpus",), True),
    "norms.lp_even_spectral.p2.terms_in": (("ops_per_s",), ("greedy-corpus",), True),
    "norms.lp_even_spectral.p4.terms_in": (
        ("ops_per_s",), ("democracy-p4", "greedy-corpus"), True),
    "norms.lp_even_spectral.p6.terms_in": (
        ("ops_per_s", "op_tail_ms", "peak_rss_mb"), ("norms-highp",), True),
    "norms.lp_monte_carlo.samples": (("ops_per_s",), ("norms-highp",), True),
    "norms.lp_monte_carlo.sample_terms": (("ops_per_s",), ("norms-highp",), True),
    "norms.lp_dense.cells": (("ops_per_s",), ("norms-highp",), True),
    "spectra.WalshSpectrum.init.terms_in": (("ops_per_s",), ("greedy-corpus",), False),
    "spectra.spectrum_add.calls": (("ops_per_s",), ("greedy-corpus",), True),
    "spectra.synthesize.cells": (("ops_per_s",), ("norms-highp",), False),
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units: dict[str, str] = {}
    for t in TARGETS:
        units[f"{t.metric}.calls"] = "calls/op"
        units[f"{t.metric}.self_s"] = "s/op"
        for c in t.counters:
            units[f"{t.metric}.{c}"] = "count/op"
    for layer in LAYERS:
        units[f"{layer}.self_share"] = "frac"
        units[f"{layer}.errors"] = "count"
    units["trace.spans"] = "spans/op"
    units["trace.overhead_frac"] = "frac"
    return units


class _Counted:
    """Iterator that counts the items its consumer pulls."""

    __slots__ = ("_it", "n")

    def __init__(self, iterable):
        self._it = iter(iterable)
        self.n = 0

    def __iter__(self):
        return self

    def __next__(self):
        item = next(self._it)
        self.n += 1
        return item


def _walshlab_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "walshlab" or name.startswith("walshlab."))]


def _resolve(target: Target):
    owner = sys.modules[target.module]
    *path, leaf = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = vars(owner)[leaf] if isinstance(owner, type) else getattr(owner, leaf)
    return raw.__func__ if isinstance(raw, classmethod) else raw


def _bindings(func):
    """(container, key, value) for each module or class attribute holding ``func``."""
    found = []
    classes = set()
    for mod in _walshlab_modules():
        for key, val in vars(mod).items():
            if val is func:
                found.append((mod, key, val))
            elif isinstance(val, type) and val.__module__.startswith("walshlab"):
                classes.add(val)
    for cls in sorted(classes, key=lambda c: c.__qualname__):
        for key, val in vars(cls).items():
            if val is func or (isinstance(val, classmethod) and val.__func__ is func):
                found.append((cls, key, val))
    return found


def _describe(ref) -> str:
    if isinstance(ref, dict):
        return "with keys " + ", ".join(sorted(map(str, ref))[:5])
    return repr(ref)[:80]


class Tracer:
    def __init__(self):
        self.op_id = -1
        self._name = array("i")
        self._parent = array("i")
        self._op = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._counts = {t.metric: dict.fromkeys(t.counters, 0) for t in TARGETS}
        self._errors = dict.fromkeys(LAYERS, 0)
        self._patched: list[tuple[object, str, object]] = []
        self._originals: list = []

    # -- installing -----------------------------------------------------------

    def install(self) -> int:
        """Wrap every binding of every target; returns the bindings replaced."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        layer_of_target = array("i", [LAYERS.index(t.layer) for t in TARGETS])
        for tid, target in enumerate(TARGETS):
            orig = _resolve(target)
            wrapper = self._wrap(tid, target, orig, layer_of_target)
            self._originals.append(orig)
            for container, key, val in _bindings(orig):
                new = classmethod(wrapper) if isinstance(val, classmethod) else wrapper
                self._patched.append((container, key, val))
                setattr(container, key, new)
        return len(self._patched)

    def uninstall(self) -> None:
        for container, key, val in reversed(self._patched):
            setattr(container, key, val)
        self._patched.clear()
        self._originals.clear()

    def unwrapped_bindings(self) -> list[str]:
        """Anything outside the tracer that still holds an original target.

        Searched through the garbage collector's referrer lists rather
        than the attributes ``install`` walks, so a binding of a kind
        ``install`` does not know (a registry dict, a list, a default
        argument) shows up here.
        """
        own = {id(self._originals), id(self._patched)}
        own.update(id(entry) for entry in self._patched)
        own.update(id(val) for _, _, val in self._patched)
        for container, key, _ in self._patched:
            wrapper = vars(container)[key]
            wrapper = getattr(wrapper, "__func__", wrapper)
            own.add(id(vars(wrapper)))
            own.update(id(cell) for cell in wrapper.__closure__ or ())
        out = []
        for orig in self._originals:
            for ref in gc.get_referrers(orig):
                if id(ref) in own or inspect.isframe(ref):
                    continue
                out.append(f"{orig.__qualname__} held by {type(ref).__name__} {_describe(ref)}")
        return out

    def _wrap(self, tid: int, target: Target, orig, layer_of_target):
        tracer = self
        names, parents, ops = self._name, self._parent, self._op
        starts, ends, stack = self._start, self._end, self._stack
        counts = self._counts[target.metric]
        count = target.count
        counted_arg = target.counted_arg
        counted_as = target.counted_as
        layer = layer_of_target[tid]

        def wrapper(*args, **kwargs):
            probe = None
            if (counted_arg is not None and len(args) > counted_arg
                    and not isinstance(args[counted_arg], Mapping)):
                probe = _Counted(args[counted_arg])
                args = args[:counted_arg] + (probe,) + args[counted_arg + 1:]
            parent = stack[-1]
            idx = len(starts)
            names.append(tid)
            parents.append(parent)
            ops.append(tracer.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                if parent < 0 or layer_of_target[names[parent]] != layer:
                    tracer._errors[LAYERS[layer]] += 1
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if probe is not None:
                counts[counted_as] += probe.n
            elif counted_arg is not None and len(args) > counted_arg:
                counts[counted_as] += len(args[counted_arg])
            if count is not None:
                def get(i, name):
                    return args[i] if len(args) > i else kwargs[name]
                for key, amount in count(get, result).items():
                    if key in counts:
                        counts[key] += amount
            return result

        return functools.wraps(orig)(wrapper)

    # -- results ---------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self._start)

    def self_times(self) -> np.ndarray:
        """Total self time per target, in TARGETS order."""
        names = np.frombuffer(self._name, dtype=np.int32)
        parents = np.frombuffer(self._parent, dtype=np.int32)
        dur = np.frombuffer(self._end) - np.frombuffer(self._start)
        child = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return np.bincount(names, weights=dur - child, minlength=len(TARGETS))

    def layer_shares(self) -> dict[str, float]:
        self_t = self.self_times()
        per_layer = dict.fromkeys(LAYERS, 0.0)
        for t, s in zip(TARGETS, self_t):
            per_layer[t.layer] += float(s)
        total = sum(per_layer.values())
        return {k: (v / total if total else 0.0) for k, v in per_layer.items()}

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-op work and time for each target, plus layer shares and errors."""
        names = np.frombuffer(self._name, dtype=np.int32)
        calls = np.bincount(names, minlength=len(TARGETS))
        self_t = self.self_times()
        out: dict[str, float] = {}
        for tid, t in enumerate(TARGETS):
            out[f"{t.metric}.calls"] = int(calls[tid]) / ops
            out[f"{t.metric}.self_s"] = float(self_t[tid]) / ops
            for key, total in self._counts[t.metric].items():
                out[f"{t.metric}.{key}"] = total / ops
        for layer, share in self.layer_shares().items():
            out[f"{layer}.self_share"] = share
        for layer, n in self._errors.items():
            out[f"{layer}.errors"] = n
        out["trace.spans"] = self.span_count / ops
        return out

    def write_spans(self, path) -> None:
        """Spans as gzip TSV: name, start_s, end_s, parent span, op id."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self._start)):
                fh.write(
                    f"{i}\t{TARGETS[self._name[i]].metric}\t{self._start[i]!r}\t"
                    f"{self._end[i]!r}\t{self._parent[i]}\t{self._op[i]}\n"
                )
