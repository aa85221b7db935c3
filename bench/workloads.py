"""Workloads of the bosegas benchmark: seeded inputs, one op each, the check
of every op's output, the reference anchors at c = h = 1 and the grid and
contour doubling at fixed anchors.

Every op draws fresh inputs.  (log h/c^2, log h, log T/h) follow a
three-dimensional Kronecker sequence with a seeded start, so they are spread
evenly and log-uniformly over h/c^2 in the workload's range, h in [0.25, 4]
and T/h in [0.002, 0.05], and no two ops of a run share h/c^2.  The even
spread keeps the mix of cheap and costly inputs, and the share of ops that
land in the weak-coupling range, where today's program refuses some inputs,
the same from seed to seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
import random
import traceback
from time import perf_counter
from typing import Callable, NamedTuple

import numpy as np

import bosegas
from bosegas import cli, excitation, numerics

# Steps of the Kronecker sequence: powers of 1/phi, phi = 1.22074... the
# root of x^4 = x + 1, whose steps spread three dimensions most evenly.
_PHI3 = 1.2207440846057596
STEPS = tuple(_PHI3 ** -k for k in (1, 2, 3))
H_RANGE = (0.25, 4.0)
T_OVER_H = (0.002, 0.05)
EXCITED_T_OVER_H = (0.02, 0.01, 0.005)
EXCITED_CLASS = bosegas.ExcitationClass(ell=1, p_plus=(1,), h_minus=(1,))
N_X = 8

# Documented loud refusals: the CLI maps these to exit code 3, and the
# excited class refuses with ConstraintError once Zq >= 2.
REFUSALS = (numerics.NumericsError, ArithmeticError, np.linalg.LinAlgError,
            excitation.ConstraintError)

# Relative tolerance of the reference anchors; admits the ~2e-7 error of the
# finite-difference harmonic amplitude, so its closed form reads as a pass.
REFERENCE_RTOL = 1e-6
DOUBLING_FLOOR = 1e-12

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _log_at(u, lo, hi):
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def coupling_inputs(seed, ratio_range, with_T=True, with_x=False):
    """Endless seeded stream of op inputs (c, h[, T][, xs])."""
    rng = random.Random(seed)
    u = [rng.random() for _ in STEPS]
    while True:
        ratio = _log_at(u[0], *ratio_range)
        h = _log_at(u[1], *H_RANGE)
        inp = {"c": math.sqrt(h / ratio), "h": h}
        if with_T:
            inp["T"] = h * _log_at(u[2], *T_OVER_H)
        u = [(v + step) % 1.0 for v, step in zip(u, STEPS)]
        if with_x:
            # x spans 0.5 to 5 thermal lengths sqrt(h)/T, the decaying regime
            scale = math.sqrt(h) / inp["T"]
            inp["x"] = tuple(sorted(scale * _log_uniform(rng, 0.5, 5.0)
                                    for _ in range(N_X)))
        yield inp


# ---------------------------------------------------------------------------
# curve: the CLI correlator path
# ---------------------------------------------------------------------------

def _write_config(path, inp):
    with open(path, "w") as fh:
        fh.write(f"c = {inp['c']!r}\nh = {inp['h']!r}\nT = {inp['T']!r}\n"
                 f"ell_max = 2\nx = {','.join(repr(x) for x in inp['x'])}\n")


def curve_call(inp, workdir):
    """Run ``bosegas correlator`` in process; returns (rc, stdout, stderr)."""
    path = os.path.join(workdir, "curve.cfg")
    _write_config(path, inp)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["correlator", "--config", path])
    return rc, out.getvalue(), err.getvalue()


def parse_curve(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return list(csv.DictReader(lines))


def curve_check(inp, raw):
    rc, out, err = raw
    if rc == 3 and err.startswith("numerical failure"):
        return "refused", err.strip()
    if rc != 0:
        return "failed", f"exit code {rc}: {err.strip()}"
    rows = parse_curve(out)
    if [float(r["x"]) for r in rows] != list(inp["x"]):
        return "failed", "x column does not match the inputs"
    for row in rows:
        vals = {k: float(v) for k, v in row.items()}
        if not all(math.isfinite(v) for v in vals.values()):
            return "failed", f"non-finite value at x = {row['x']}"
        if vals["T"] != inp["T"]:
            return "failed", "T column does not match the inputs"
        parts = [vals["constant"], vals["ell0_term"], vals["pair_1"],
                 vals["pair_2"]]
        colsum = math.fsum(parts)
        if abs(colsum - vals["total"]) > 1e-12 * max(map(abs, parts)):
            return "failed", f"total != column sum at x = {row['x']}"
    return "ok", ""


def curve_anchor(workdir):
    inp = {"c": 1.0, "h": 1.0, "T": 0.01, "x": (20.0, 40.0, 80.0)}
    raw = curve_call(inp, workdir)
    status, why = curve_check(inp, raw)
    if status != "ok":
        raise RuntimeError(f"curve anchor {status}: {why}")
    rows = parse_curve(raw[1])
    out = {f"A_{ell}": complex(float(rows[0][f"A_{ell}_re"]),
                               float(rows[0][f"A_{ell}_im"]))
           for ell in (1, 2)}
    out.update({f"total@x={r['x']}": float(r["total"]) for r in rows})
    return out


def curve_doubled(ratio, doubled):
    """A1 at h/c^2 = ratio: grid 96 -> 192, contour 256 -> 512."""
    params = bosegas.ModelParams(c=1.0 / math.sqrt(ratio), h=1.0)
    gs = bosegas.build_ground_state(params, n_nodes=192 if doubled else 96)
    return (bosegas.harmonic_amplitude(gs, 1,
                                       contour_n=512 if doubled else 256),)


# ---------------------------------------------------------------------------
# scan: equation of state, ground state plus Yang-Yang
# ---------------------------------------------------------------------------

def _scan_scalars(c, h, T, n_nodes=96, n_per_panel=16):
    gs = bosegas.build_ground_state(bosegas.ModelParams(c=c, h=h),
                                    n_nodes=n_nodes)
    th = bosegas.solve_yang_yang(bosegas.ModelParams(c=c, h=h, T=T), gs,
                                 n_per_panel=n_per_panel)
    return gs, th


def scan_call(inp, workdir):
    return _scan_scalars(inp["c"], inp["h"], inp["T"])


def _scan_values(gs, th):
    return {"q": gs.q, "Zq": gs.Zq, "D": gs.D, "v0": gs.v0,
            "eps(0)": float(np.real(th.eps_at(0.0)))}


def scan_check(inp, raw):
    gs, th = raw
    values = _scan_values(gs, th)
    if not all(math.isfinite(v) for v in values.values()):
        return "failed", f"non-finite scalar in {values}"
    if not np.all(np.isfinite(th.eps.values)):
        return "failed", "non-finite thermal energy"
    if not th.residual <= 1e-12 * max(inp["h"], inp["T"]):
        return "failed", f"Yang-Yang residual {th.residual:.2e}"
    return "ok", ""


def scan_anchor(workdir):
    inp = {"c": 1.0, "h": 1.0, "T": 0.01}
    raw = scan_call(inp, workdir)
    status, why = scan_check(inp, raw)
    if status != "ok":
        raise RuntimeError(f"scan anchor {status}: {why}")
    return _scan_values(*raw)


def scan_doubled(ratio, doubled):
    """q, Zq, D, v0, eps(0) at h/c^2 = ratio, T = 0.01 h: Fermi grid
    96 -> 192 and thermal panels 16 -> 32 nodes."""
    sizes = (192, 32) if doubled else (96, 16)
    values = _scan_values(*_scan_scalars(1.0 / math.sqrt(ratio), 1.0, 0.01,
                                         *sizes))
    return tuple(values.values())


# ---------------------------------------------------------------------------
# excited: the excited-sector Newton solve at three temperatures
# ---------------------------------------------------------------------------

def _excited_solution(gs, c, h, T, n_per_panel=16):
    params = bosegas.ModelParams(c=c, h=h, T=T)
    th = bosegas.solve_yang_yang(params, gs, n_per_panel=n_per_panel)
    return bosegas.solve_u(params, EXCITED_CLASS, thermal=th, gs=gs)


def excited_call(inp, workdir):
    c, h = inp["c"], inp["h"]
    gs = bosegas.build_ground_state(bosegas.ModelParams(c=c, h=h))
    out = []
    for t_over_h in EXCITED_T_OVER_H:
        sol = _excited_solution(gs, c, h, t_over_h * h)
        out.append((sol, bosegas.decay_rate_numeric(sol),
                    bosegas.bd_finite_T(sol)))
    return out


def excited_check(inp, raw):
    for sol, rate, bd in raw:
        T = sol.params.T
        if not (np.isfinite(rate) and np.isfinite(bd)
                and np.all(np.isfinite(sol.u_values))):
            return "failed", f"non-finite result at T = {T!r}"
        if not sol.residual <= 1e-12 * max(inp["h"], T):
            return "failed", f"Newton residual {sol.residual:.2e} at T = {T!r}"
    return "ok", ""


def excited_anchor(workdir):
    inp = {"c": 1.0, "h": 1.0}
    raw = excited_call(inp, workdir)
    status, why = excited_check(inp, raw)
    if status != "ok":
        raise RuntimeError(f"excited anchor {status}: {why}")
    out = {}
    for (sol, rate, bd), t_over_h in zip(raw, EXCITED_T_OVER_H):
        out[f"decay_rate@T={t_over_h}"] = rate
        out[f"bd_finite_T@T={t_over_h}"] = bd
    return out


def excited_doubled(ratio, doubled):
    """Decay rate and bd_finite_T at h/c^2 = ratio, T = 0.005 h: Fermi grid
    96 -> 192 and thermal panels (hence the contour) 16 -> 32 nodes."""
    c = 1.0 / math.sqrt(ratio)
    n_nodes, n_per_panel = (192, 32) if doubled else (96, 16)
    gs = bosegas.build_ground_state(bosegas.ModelParams(c=c, h=1.0),
                                    n_nodes=n_nodes)
    sol = _excited_solution(gs, c, 1.0, 0.005, n_per_panel)
    return bosegas.decay_rate_numeric(sol), bosegas.bd_finite_T(sol)


# ---------------------------------------------------------------------------
# verify: the full verification suite
# ---------------------------------------------------------------------------

def verify_call(inp, workdir):
    return bosegas.run_checks()


def verify_check(inp, raw):
    failed = [r.name for r in raw if not r.passed]
    if failed:
        return "failed", f"checks failed: {', '.join(failed)}"
    return "ok", ""


def verify_anchor(workdir):
    """The grid-hygiene check's base scalars; one check keeps the warm-up
    short, and every op checks that all eleven pass."""
    raw = bosegas.run_checks(["grid-hygiene"])
    status, why = verify_check(None, raw)
    if status != "ok":
        raise RuntimeError(f"verify anchor {status}: {why}")
    return {f"grid-hygiene.{k}": complex(v)
            for k, v in raw[0].details["base"].items()}


def verify_doubling():
    """The grid-hygiene check doubles grid and contour at c = h = 1."""
    details = bosegas.run_checks(["grid-hygiene"])[0].details
    return max(details["rel_change"].values()), []


def doubling_over(doubled, anchors):
    """Largest relative change of ``doubled(anchor, doubled)`` outputs over
    the anchors, and the anchors the program refused to answer."""
    def run():
        worst, refused = 0.0, []
        for anchor in anchors:
            try:
                base, fine = doubled(anchor, False), doubled(anchor, True)
            except REFUSALS:
                refused.append(anchor)
                continue
            worst = max([worst] + [abs(f - b) / abs(f)
                                   for b, f in zip(base, fine)])
        return worst, refused
    return run


class Workload(NamedTuple):
    name: str
    inputs: Callable      # seed -> endless iterator of op inputs
    call: Callable        # (inputs, workdir) -> raw output; the timed part
    check: Callable       # (inputs, raw) -> (status, reason)
    anchor: Callable      # workdir -> {name: value} at c = h = 1
    doubling: Callable    # () -> (largest relative change, refused anchors)


WORKLOADS = {
    "curve": Workload(
        "curve", lambda seed: coupling_inputs(seed, (0.01, 16.0), with_x=True),
        curve_call, curve_check, curve_anchor,
        doubling_over(curve_doubled, (0.01, 1.0, 4.0))),
    "scan": Workload(
        "scan", lambda seed: coupling_inputs(seed, (0.01, 16.0)),
        scan_call, scan_check, scan_anchor,
        doubling_over(scan_doubled, (0.01, 1.0, 16.0))),
    "excited": Workload(
        "excited", lambda seed: coupling_inputs(seed, (0.01, 2.0),
                                                with_T=False),
        excited_call, excited_check, excited_anchor,
        doubling_over(excited_doubled, (0.01, 1.0))),
    "verify": Workload(
        # takes no seed: every op is the same full suite
        "verify", lambda seed: itertools.repeat(None),
        verify_call, verify_check, verify_anchor, verify_doubling),
}


def run_op(workload, inp, workdir):
    """One op: (status, seconds, reason).  Only the program call is timed;
    the status is ok, refused (a documented loud refusal) or failed."""
    t0 = perf_counter()
    try:
        raw = workload.call(inp, workdir)
    except REFUSALS as exc:
        return "refused", perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    except Exception:  # the loop must keep running; reported failed
        return "failed", perf_counter() - t0, traceback.format_exc()
    seconds = perf_counter() - t0
    try:
        status, reason = workload.check(inp, raw)
    except Exception:  # output the check cannot read counts as wrong
        status, reason = "failed", traceback.format_exc()
    return status, seconds, reason


def _encode(value):
    value = complex(value)
    return [value.real, value.imag]


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def compare_anchor(name, values, reference):
    """Names of anchor values that differ from the committed reference by
    more than REFERENCE_RTOL (relative to the reference's magnitude)."""
    ref = reference[name]
    bad = sorted(set(ref) ^ set(values))
    for key in set(ref) & set(values):
        want = complex(*ref[key])
        if abs(complex(values[key]) - want) > REFERENCE_RTOL * abs(want):
            bad.append(key)
    return bad


def write_reference(workdir):
    """Recompute every anchor and store it as the committed reference."""
    doc = {name: {k: _encode(v) for k, v in wl.anchor(workdir).items()}
           for name, wl in WORKLOADS.items()}
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
