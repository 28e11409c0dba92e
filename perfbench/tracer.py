"""Spans around every public bilor function, recorded from outside.

`Tracer` wraps each public function of each bilor module and rebinds every
name that refers to it: the defining module's attribute, the package's
re-export and each ``from .x import y`` alias in another module (for example
``lorentzian.substitute`` and ``cli.parse_form``).  Function bodies look up
globals at call time, so calls between modules go through the wrappers.

Spans live in memory as parallel arrays (name, parent, start, end); each
op is a root span, so the spans of one op are its descendants and sit
together in the arrays.  Self time is a span's duration minus the time its
child spans cover.  The wrappers are bound only while `op()` is open, so
untimed harness code and untraced runs never pay for them.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
from array import array
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("forms", "linalg", "realpoly", "toeplitz", "hessians", "algebra",
          "lorentzian", "stability", "paths", "verdict", "cli")

# (name, unit, better) of every per-layer metric.  Names of the form
# `<layer>.<function>.calls` / `.self_s` are read off the spans directly; the
# others are computed in `Tracer.metrics` or by the runner.
PER_LAYER = (
    ("linalg.int_det.calls", "count", "lower"),
    ("linalg.int_det.self_s", "s", "lower"),
    ("linalg.int_det.max_bits", "bits", "lower"),
    ("linalg.det.calls", "count", "lower"),
    ("linalg.det.self_s", "s", "lower"),
    ("linalg.rref.calls", "count", "lower"),
    ("linalg.rref.self_s", "s", "lower"),
    ("toeplitz.is_totally_nonnegative.calls", "count", "lower"),
    ("toeplitz.is_totally_nonnegative.self_s", "s", "lower"),
    ("toeplitz.is_totally_nonnegative.minors", "count", "lower"),
    ("toeplitz.is_totally_positive.calls", "count", "lower"),
    ("toeplitz.is_totally_positive.self_s", "s", "lower"),
    ("toeplitz.is_totally_positive.minors", "count", "lower"),
    ("toeplitz.is_totally_positive_full.minors", "count", "lower"),
    ("toeplitz.rank.calls", "count", "lower"),
    ("toeplitz.rank.self_s", "s", "lower"),
    ("forms.substitute.calls", "count", "lower"),
    ("forms.substitute.self_s", "s", "lower"),
    ("lorentzian.halving_steps", "count", "lower"),
    ("lorentzian.approximate_tp.self_s", "s", "lower"),
    ("lorentzian.is_strictly_lorentzian.calls", "count", "lower"),
    ("lorentzian.is_strictly_lorentzian.self_s", "s", "lower"),
    ("lorentzian.is_strictly_lorentzian.dets", "count", "lower"),
    ("algebra.profile.calls", "count", "lower"),
    ("algebra.profile.self_s", "s", "lower"),
    ("algebra.annihilator_generators.self_s", "s", "lower"),
    ("algebra.primitive_subspace.self_s", "s", "lower"),
    ("hessians.evaluate_hessian.calls", "count", "lower"),
    ("hessians.evaluate_hessian.self_s", "s", "lower"),
    ("hessians.evaluate_mixed_hessian.self_s", "s", "lower"),
    ("hessians.signature.self_s", "s", "lower"),
    ("realpoly.count_roots.calls", "count", "lower"),
    ("realpoly.count_roots.self_s", "s", "lower"),
    ("realpoly.sturm_chain.max_len", "count", "lower"),
    ("stability.is_stable.self_s", "s", "lower"),
    ("stability.count_roots.calls", "count", "lower"),
    ("forms.derive.calls", "count", "lower"),
    ("forms.derive.self_s", "s", "lower"),
    ("forms.parse_form.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.process_ms_p50", "ms", "lower"),
    ("cli.startup_ms_p50", "ms", "lower"),
    ("trace.overhead", "ratio", "lower"),
)

# int_det spans counted under each scanner ("minors"), det spans under the
# strict check ("dets").
_UNDER = {
    "toeplitz.is_totally_nonnegative.minors": ("linalg.int_det", "toeplitz.is_totally_nonnegative"),
    "toeplitz.is_totally_positive.minors": ("linalg.int_det", "toeplitz.is_totally_positive"),
    "toeplitz.is_totally_positive_full.minors": ("linalg.int_det", "toeplitz.is_totally_positive_full"),
    "lorentzian.is_strictly_lorentzian.dets": ("linalg.det", "lorentzian.is_strictly_lorentzian"),
}
_HALVING_ROOTS = ("lorentzian.approximate_tp", "lorentzian.straighten_from_hrr")
_MIXES = ("forms.symmetric_mix", "forms.substitute")
OP_SPAN = "op"


def public_functions(module):
    """(name, function) for each public function the module itself defines."""
    return [
        (name, obj) for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not name.startswith("_")
    ]


class Tracer:
    def __init__(self, package, modules: dict):
        """`modules` maps each layer name to its module; `package` is bilor."""
        self.names = [OP_SPAN]
        self.name_t = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.max_bits = 0
        self.max_sturm = 0
        observers = {
            "linalg.int_det": self._see_det,
            "realpoly.sturm_chain": self._see_chain,
        }
        wrapper_of = {}
        for layer, module in modules.items():
            for name, fn in public_functions(module):
                span = f"{layer}.{name}"
                self.names.append(span)
                wrapper_of[fn] = self._wrap(fn, len(self.names) - 1, observers.get(span))
        self.bindings = []
        for module in (package, *modules.values()):
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj in wrapper_of:
                    self.bindings.append((module, attr, obj, wrapper_of[obj]))

    def _see_det(self, value):
        self.max_bits = max(self.max_bits, abs(value).bit_length())

    def _see_chain(self, chain):
        self.max_sturm = max(self.max_sturm, len(chain))

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_t.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name_id: int, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if observe is not None:
                observe(result)
            return result

        return traced

    @contextlib.contextmanager
    def op(self):
        """Bind the wrappers and record one op as a root span."""
        for module, attr, _, wrapper in self.bindings:
            setattr(module, attr, wrapper)
        idx = self._open(0)
        try:
            yield
        finally:
            self._close(idx)
            for module, attr, original, _ in self.bindings:
                setattr(module, attr, original)

    # -- reading the spans ------------------------------------------------------

    def _ancestors(self, k: int):
        p = self.parent[k]
        while p >= 0:
            yield p
            p = self.parent[p]

    def self_times(self) -> list[float]:
        dur = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * len(dur)
        for k, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += dur[k]
        return [d - c for d, c in zip(dur, covered)]

    def count(self, name: str, since: int = 0) -> int:
        """Spans of `name` recorded at or after span index `since`."""
        return self.name_t[since:].count(self.names.index(name))

    def metrics(self) -> dict:
        """Every per-layer metric the spans give, by name."""
        names = self.names
        selfs = self.self_times()
        calls: Counter = Counter()
        self_s: dict = defaultdict(float)
        for k, t in enumerate(self.name_t):
            calls[names[t]] += 1
            self_s[names[t]] += selfs[k]
        out = {}
        for name, unit, _ in PER_LAYER:
            base, _, what = name.rpartition(".")
            if what == "calls":
                out[name] = calls[base]
            elif what == "self_s":
                out[name] = self_s[base]
        # the CLI layer's own time: argparse, handlers and JSON/table emit
        out["cli.main.self_s"] = sum(v for k, v in self_s.items() if k.startswith("cli."))
        out["linalg.int_det.max_bits"] = self.max_bits
        out["realpoly.sturm_chain.max_len"] = self.max_sturm
        under = Counter()
        halving = 0
        mix_ids = {names.index(n) for n in _MIXES}
        root_ids = {names.index(n) for n in _HALVING_ROOTS}
        targets = {names.index(child): [] for child, _ in _UNDER.values()}
        for metric, (child, ancestor) in _UNDER.items():
            targets[names.index(child)].append((metric, names.index(ancestor)))
        for k, t in enumerate(self.name_t):
            if t in targets:
                above = {self.name_t[p] for p in self._ancestors(k)}
                for metric, anc in targets[t]:
                    under[metric] += anc in above
            if t in mix_ids and self.name_t[self.parent[k]] not in mix_ids:
                halving += bool(root_ids & {self.name_t[p] for p in self._ancestors(k)})
        for metric in _UNDER:
            out[metric] = under[metric]
        out["lorentzian.halving_steps"] = halving
        return out
