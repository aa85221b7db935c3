"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the ``bosegas`` modules from the
outside: every module namespace (and the ``verification.CHECKS`` table) that
binds one of the target functions gets a wrapper that records a span.  A span
holds its name, start, end, parent span, op id and, for a few functions, a
handful of size or iteration counts read from the call.  Spans stay in memory;
the caller writes them out when the run ends.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# Public functions timed per module; a dotted name is a method of a class.
TARGETS = {
    "numerics": ("cauchy_transform", "fredholm_logdet", "nystrom_factorize",
                 "nystrom_solve", "Grid.derivative"),
    "groundstate": ("build_ground_state", "solve_fermi_boundary"),
    "thermal": ("solve_yang_yang",),
    "excitation": ("solve_u",),
    "amplitude": ("amplitude_tilde", "smooth_amplitude", "c1_functional",
                  "bd_finite_T", "w_series"),
    "specfun": ("barnes_g", "gamma_ratio"),
    "correlator": ("harmonic_amplitude", "density_correlator",
                   "generating_asymptotics", "ell0_term_fd"),
    "cli": ("main",),
}

# The verification checks, timed under ``verification.<check name>``.
CHECK_NAMES = ("free-fermion", "thermal-low-t", "excited-expansion",
               "decay-rate", "w-identity", "gamma-integral",
               "smooth-amplitude", "discrete-limit", "edge-asymptotics",
               "assembly", "grid-hygiene")

MODULES = tuple(TARGETS) + ("verification",)

# Cumulative import times reported as setup.import_<module>_s.
SETUP_MODULES = ("bosegas", "scipy.optimize", "scipy.linalg", "numpy")

RATIOS = ("groundstate.factorizations_per_build",
          "amplitude.calls_per_ground_state",
          "correlator.amplitude_evals_per_harmonic")
# metric -> (span name, attribute) whose mean over calls it reports
MEANS = {
    "numerics.fredholm_logdet.mean_n": ("numerics.fredholm_logdet", "n"),
    "thermal.solve_yang_yang.iterations":
        ("thermal.solve_yang_yang", "iterations"),
    "thermal.solve_yang_yang.grid_n": ("thermal.solve_yang_yang", "grid_n"),
    "excitation.solve_u.iterations": ("excitation.solve_u", "iterations"),
    "excitation.solve_u.contour_n": ("excitation.solve_u", "contour_n"),
}


def setup_metric(module):
    return f"setup.import_{module.replace('.', '_')}_s"


def per_layer_names():
    """Every per-layer metric of a traced run, in report order."""
    names = [f"{m}.{q}.{kind}" for m, quals in TARGETS.items()
             for q in quals for kind in ("calls", "self_s")]
    names += [f"verification.{check}.s" for check in CHECK_NAMES]
    names += list(MEANS) + list(RATIOS)
    names += [f"{m}.self_frac" for m in MODULES] + ["unattributed.self_frac"]
    names += [setup_metric(m) for m in SETUP_MODULES]
    return names + ["trace.overhead_frac"]


def unit(name):
    if name.startswith("setup."):
        return "s"
    if name in MEANS:
        return "count"
    if name in RATIOS:
        return "ratio"
    return {"calls": "count/op", "self_s": "s/op", "s": "s/op"}.get(
        name.rsplit(".", 1)[1], "fraction")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Counts read from a call: span name -> f(args, kwargs, result) -> dict.
ATTRS = {
    "numerics.fredholm_logdet":
        lambda a, k, r: {"n": _arg(a, k, 1, "domain").nodes.size},
    "thermal.solve_yang_yang":
        lambda a, k, r: {"iterations": r.iterations, "grid_n": r.grid.size},
    "excitation.solve_u":
        lambda a, k, r: {"iterations": r.iterations,
                         "contour_n": r.contour.nodes.size},
    "amplitude.amplitude_tilde":
        lambda a, k, r: {"gs": id(_arg(a, k, 0, "gs"))},
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.attrs = None

    def row(self):
        return [getattr(self, field) for field in self.__slots__]


class Tracer:
    """Records spans while installed; ``op`` tags the spans of one op."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._patches = []
        self._wrappers = None

    def _wrap(self, name, fn):
        attrs = ATTRS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, stack[-1] if stack else None, self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result
        return wrapper

    def _build_wrappers(self):
        """id(original) -> (original, wrapper), plus the class methods."""
        by_id, methods = {}, []
        for mod_name, names in TARGETS.items():
            module = sys.modules[f"bosegas.{mod_name}"]
            for qual in names:
                *path, attr = qual.split(".")
                owner = module
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
                wrapped = self._wrap(f"{mod_name}.{qual}", fn)
                if path:
                    methods.append((owner, attr, fn, wrapped))
                else:
                    by_id[id(fn)] = (fn, wrapped)
        checks = sys.modules["bosegas.verification"].CHECKS
        for check in CHECK_NAMES:
            fn = checks[check]
            by_id[id(fn)] = (fn, self._wrap(f"verification.{check}", fn))
        return by_id, methods

    def install(self):
        """Bind the wrappers in every bosegas namespace that binds a target."""
        if self._wrappers is None:
            self._wrappers = self._build_wrappers()
        by_id, methods = self._wrappers
        for owner, attr, fn, wrapped in methods:
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, wrapped)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "bosegas" and not mod_name.startswith("bosegas."):
                continue
            for attr, value in list(vars(module).items()):
                entry = by_id.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, entry[1])
        checks = sys.modules["bosegas.verification"].CHECKS
        for check in CHECK_NAMES:
            fn = checks[check]
            self._patches.append((checks, check, fn))
            checks[check] = by_id[id(fn)][1]

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)


def self_times(spans):
    """Each span's duration minus the part of its interval that its child
    spans cover.  ``spans`` is a sequence of (start, end, parent index)."""
    children = [[] for _ in spans]
    for start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for (start, end, _), kids in zip(spans, children):
        covered, reach = 0.0, start
        for lo, hi in sorted(kids):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, n_ops, op_seconds):
    """Per-layer metrics of ``n_ops`` traced ops whose wall times sum to
    ``op_seconds``: calls and self seconds per op for every target, the
    share of op time spent in each module, and the named ratios."""
    calls, self_s, total_s = Counter(), Counter(), Counter()
    attrs = {}
    shares = dict.fromkeys(MODULES, 0.0)
    selfs = self_times([(s.start, s.end, s.parent) for s in spans])
    for span, own in zip(spans, selfs):
        calls[span.name] += 1
        self_s[span.name] += own
        total_s[span.name] += span.end - span.start
        shares[span.name.split(".", 1)[0]] += own
        for key, value in (span.attrs or {}).items():
            attrs.setdefault((span.name, key), []).append(value)

    def nested_calls(outer, inner):
        """Calls of ``inner`` made (at any depth) inside ``outer`` spans."""
        count = 0
        for span in spans:
            parent = span.parent if span.name == inner else None
            while parent is not None and spans[parent].name != outer:
                parent = spans[parent].parent
            count += parent is not None
        return count

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for mod_name, names in TARGETS.items():
        for qual in names:
            name = f"{mod_name}.{qual}"
            out[f"{name}.calls"] = calls[name] / n_ops
            out[f"{name}.self_s"] = self_s[name] / n_ops
    for check in CHECK_NAMES:
        name = f"verification.{check}"
        out[f"{name}.s"] = total_s[name] / n_ops
    for metric, key in MEANS.items():
        values = attrs.get(key, [])
        out[metric] = ratio(sum(values), len(values))
    out["groundstate.factorizations_per_build"] = ratio(
        nested_calls("groundstate.build_ground_state",
                     "numerics.nystrom_factorize"),
        calls["groundstate.build_ground_state"])
    # ids are unique only while the object lives, and a ground state lives
    # no longer than its op
    ground_states = {(s.op, s.attrs["gs"]) for s in spans
                     if s.name == "amplitude.amplitude_tilde" and s.attrs}
    out["amplitude.calls_per_ground_state"] = ratio(
        calls["amplitude.amplitude_tilde"], len(ground_states))
    out["correlator.amplitude_evals_per_harmonic"] = ratio(
        nested_calls("correlator.harmonic_amplitude",
                     "amplitude.amplitude_tilde"),
        calls["correlator.harmonic_amplitude"])
    for mod_name in MODULES:
        out[f"{mod_name}.self_frac"] = ratio(shares[mod_name], op_seconds)
    out["unattributed.self_frac"] = 1.0 - sum(
        out[f"{m}.self_frac"] for m in MODULES)
    return out
