"""Command-line front end.

Flat key=value configuration with command-line overrides, CSV/JSON emission
of tables and curves, and a ``verify`` subcommand driving the built-in
verification suite.  Exit codes: 0 success, 1 verification failure,
2 invalid input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass, fields, replace
from functools import lru_cache

import numpy as np

from .amplitude import CONTOUR_NODES, AmplitudePlan
from .correlator import density_correlator
from .groundstate import (FERMI_NODES, GroundState, ModelParams,
                          build_ground_state)
from .numerics import NumericsError
from .thermal import solve_yang_yang
from .verification import CHECKS, run_checks


class ConfigError(ValueError):
    """Invalid configuration file or option value."""


@dataclass(frozen=True)
class RunConfig:
    """Fully deterministic run parameters (no randomness anywhere)."""

    c: float = 1.0
    h: float = 1.0
    T: float = 0.01
    alpha: float = 0.0
    ell_max: int = 2
    x: tuple = (10.0,)
    grid_n: int = FERMI_NODES
    contour_n: int = CONTOUR_NODES

    def __post_init__(self):
        if not self.ell_max >= 0:
            raise ConfigError(f"ell_max must be non-negative: {self.ell_max}")
        if not np.isfinite(self.alpha):
            raise ConfigError(f"alpha must be finite: {self.alpha}")
        if not self.x:
            raise ConfigError("x must list at least one distance")


def _parse_value(key: str, raw: str):
    ftype = {f.name: f.type for f in fields(RunConfig)}[key]
    try:
        if key == "x":
            return tuple(float(v) for v in raw.split(",") if v.strip())
        if ftype == "int":
            return int(raw)
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc


def load_config(path: str = None, overrides: dict = None) -> RunConfig:
    """Flat key=value file, '#' comments, unknown keys rejected."""
    known = {f.name for f in fields(RunConfig)}
    cfg = RunConfig()
    if path is not None:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, raw = (s.strip() for s in line.split("=", 1))
                if key not in known:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                cfg = replace(cfg, **{key: _parse_value(key, raw)})
    for key, value in (overrides or {}).items():
        if value is not None:
            cfg = replace(cfg, **{key: value})
    return cfg


# ---------------------------------------------------------------------------
# table emission
# ---------------------------------------------------------------------------

def _flatten(row: dict) -> dict:
    """Split complex entries into _re/_im column pairs."""
    out = {}
    for key, value in row.items():
        if isinstance(value, complex) or np.iscomplexobj(value):
            out[f"{key}_re"] = float(np.real(value))
            out[f"{key}_im"] = float(np.imag(value))
        elif isinstance(value, (int, np.integer)):
            out[key] = int(value)
        elif isinstance(value, str):
            out[key] = value
        else:
            out[key] = float(value)
    return out


def render_tables(tables, fmt: str) -> str:
    """Serialize named tables; each table is (rows, provenance) with
    provenance mapping column name -> (module, quantity)."""
    if fmt == "json":
        doc = {}
        for name, (rows, provenance) in tables.items():
            doc[name] = {
                "rows": [_flatten(r) for r in rows],
                "provenance": {k: list(v) for k, v in provenance.items()},
            }
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        for name, (rows, _) in tables.items():
            flat = [_flatten(r) for r in rows]
            buf.write(f"# {name}\n")
            if flat:
                writer = csv.DictWriter(buf, fieldnames=list(flat[0]),
                                        lineterminator="\n")
                writer.writeheader()
                writer.writerows(flat)
            buf.write("\n")
        return buf.getvalue()
    raise ConfigError(f"unknown format {fmt!r}")


def _write(text: str, out: str = None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

# each table command maps the configuration and its ground state to its
# named tables, each table being (rows, provenance)

def cmd_ground_state(cfg: RunConfig, gs: GroundState) -> dict:
    scalars = [{"q": gs.q, "Zq": gs.Zq, "D": gs.D, "kF": gs.kF,
                "v0": gs.v0, "eps0_prime_q": gs.eps0_prime_q}]
    prov_s = {"q": ("groundstate", "fermi_boundary"),
              "Zq": ("groundstate", "dressed_charge_edge"),
              "D": ("groundstate", "density"),
              "kF": ("groundstate", "fermi_momentum"),
              "v0": ("groundstate", "sound_velocity"),
              "eps0_prime_q": ("groundstate", "edge_slope")}
    curve = [{"lambda": lam, "eps0": e, "Z": z}
             for lam, e, z in zip(gs.grid.nodes, np.real(gs.eps0.values),
                                  np.real(gs.Z.values))]
    prov_c = {"lambda": ("groundstate", "rapidity_node"),
              "eps0": ("groundstate", "dressed_energy"),
              "Z": ("groundstate", "dressed_charge")}
    return {"scalars": (scalars, prov_s), "curve": (curve, prov_c)}


def cmd_thermal(cfg: RunConfig, gs: GroundState) -> dict:
    th = solve_yang_yang(gs.params, gs)
    scalars = [{"T": cfg.T, "cutoff": th.grid.b,
                "iterations": th.iterations, "residual": th.residual}]
    prov_s = {"T": ("thermal", "temperature"),
              "cutoff": ("thermal", "grid_cutoff"),
              "iterations": ("thermal", "fixed_point_iterations"),
              "residual": ("thermal", "fixed_point_residual")}
    curve = [{"lambda": lam, "eps": e, "log_weight": lw}
             for lam, e, lw in zip(th.grid.nodes, np.real(th.eps.values),
                                   np.real(th.log_weight))]
    prov_c = {"lambda": ("thermal", "rapidity_node"),
              "eps": ("thermal", "excitation_energy"),
              "log_weight": ("thermal", "log_occupation_weight")}
    return {"scalars": (scalars, prov_s), "curve": (curve, prov_c)}


def cmd_lengths(cfg: RunConfig, gs: GroundState) -> dict:
    rows = []
    for ell in range(1, cfg.ell_max + 1):
        exponent = gs.exponent(ell)
        rows.append({"ell": ell,
                     "momentum": 2.0 * ell * gs.kF,
                     "exponent": exponent,
                     "inverse_length": exponent * np.pi * cfg.T / gs.v0})
    prov = {"ell": ("excitation", "umklapp_number"),
            "momentum": ("correlator", "oscillation_momentum"),
            "exponent": ("amplitude", "envelope_exponent"),
            "inverse_length": ("correlator", "inverse_correlation_length")}
    return {"lengths": (rows, prov)}


def cmd_amplitudes(cfg: RunConfig, gs: GroundState) -> dict:
    plan = AmplitudePlan(gs, cfg.contour_n)
    rows = []
    for ell in range(0, cfg.ell_max + 1):
        res = plan.amplitude(cfg.alpha, ell)
        al = cfg.alpha + ell
        rows.append({"ell": ell, "alpha_ell": al,
                     "B_smooth": complex(res.B_smooth),
                     "A_tilde": complex(res.A_tilde),
                     "exponent": float(gs.exponent(al))})
    prov = {"ell": ("excitation", "umklapp_number"),
            "alpha_ell": ("amplitude", "shifted_twist"),
            "B_smooth": ("amplitude", "smooth_factor"),
            "A_tilde": ("amplitude", "term_amplitude"),
            "exponent": ("amplitude", "envelope_exponent")}
    return {"amplitudes": (rows, prov)}


def cmd_correlator(cfg: RunConfig, gs: GroundState) -> dict:
    rows = []
    for series in density_correlator(AmplitudePlan(gs, cfg.contour_n), cfg.x,
                                     cfg.T, cfg.ell_max):
        row = {"x": series.x, "T": series.T, "constant": series.constant,
               "ell0_term": series.ell0_term}
        by_ell = {t.ell: t for t in series.harmonics}
        for ell in range(1, cfg.ell_max + 1):
            # the -ell harmonic is the conjugate, so the pair sum is real
            row[f"A_{ell}"] = by_ell[ell].amplitude
            row[f"envelope_{ell}"] = by_ell[ell].envelope
            row[f"pair_{ell}"] = 2.0 * by_ell[ell].value.real
        row["total"] = series.total.real
        rows.append(row)
    prov = {"x": ("correlator", "distance"),
            "T": ("thermal", "temperature"),
            "constant": ("correlator", "constant_term"),
            "ell0_term": ("correlator", "hyperbolic_term"),
            "total": ("correlator", "assembled_series")}
    for ell in range(1, cfg.ell_max + 1):
        prov[f"A_{ell}"] = ("correlator", "harmonic_amplitude")
        prov[f"envelope_{ell}"] = ("correlator", "harmonic_envelope")
        prov[f"pair_{ell}"] = ("correlator", "conjugate_pair_term")
    return {"correlator": (rows, prov)}


def cmd_verify(cfg: RunConfig, out, only=None) -> int:
    names = [only] if only else None
    results = run_checks(names, grid_n=cfg.grid_n, contour_n=cfg.contour_n)
    for res in results:
        print(res.summary())
    n_failed = sum(not r.passed for r in results)
    print(f"{len(results) - n_failed}/{len(results)} checks passed")
    if out is not None:
        # timings stay on the console; the report file is deterministic
        report = [{"name": r.name, "passed": r.passed,
                   "bounds": {k: {**b._asdict(), "margin": b.margin}
                              for k, b in r.bounds.items()},
                   "details": json.loads(json.dumps(
                       r.details, default=lambda v: repr(v)))}
                  for r in results]
        _write(json.dumps({"checks": report}, indent=2) + "\n", out)
    return 1 if n_failed else 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` leaves
    it unchanged, and its six sub-parsers cost far more than a parse."""
    parser = argparse.ArgumentParser(
        prog="bosegas",
        description="Thermodynamics and correlation asymptotics of the "
                    "one-dimensional delta-interacting Bose gas.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="flat key=value configuration file")
    common.add_argument("--out", metavar="PATH",
                        help="output file (default: stdout)")
    common.add_argument("--grid-n", type=int, metavar="INT",
                        help="interval grid size override")
    common.add_argument("--contour-n", type=int, metavar="INT",
                        help="determinant contour size override")

    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
            ("ground-state", "zero-temperature scalars and curves"),
            ("thermal", "finite-temperature excitation energy"),
            ("lengths", "correlation lengths and momenta per harmonic"),
            ("amplitudes", "term amplitudes at the configured twist"),
            ("correlator", "assembled density-density correlator over x")):
        # the table commands only: verify always writes a JSON report
        table = sub.add_parser(name, parents=[common], help=text)
        table.add_argument("--format", choices=("csv", "json"),
                           default="csv", help="output format (default: csv)")
    verify = sub.add_parser("verify", parents=[common],
                            help="run the verification suite")
    verify.add_argument("--only", metavar="NAME", choices=sorted(CHECKS),
                        help="run a single named check")
    return parser


COMMANDS = {
    "ground-state": cmd_ground_state,
    "thermal": cmd_thermal,
    "lengths": cmd_lengths,
    "amplitudes": cmd_amplitudes,
    "correlator": cmd_correlator,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, {"grid_n": args.grid_n,
                                        "contour_n": args.contour_n})
        if args.command == "verify":
            return cmd_verify(cfg, args.out, only=args.only)
        gs = build_ground_state(ModelParams(c=cfg.c, h=cfg.h, T=cfg.T),
                                n_nodes=cfg.grid_n)
        tables = COMMANDS[args.command](cfg, gs)
        _write(render_tables(tables, args.format), args.out)
        return 0
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
