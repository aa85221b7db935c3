"""Command-line interface: configuration parsing, output formats,
determinism and exit codes."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import bosegas
from bosegas.amplitude import AmplitudePlan
from bosegas.cli import (ConfigError, RunConfig, build_parser, load_config,
                         main, render_tables)
from bosegas.groundstate import ModelParams, build_ground_state
from bosegas.verification import CHECKS, run_checks


class TestConfig:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg == RunConfig()

    def test_file_parsing(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("c = 2.0   # stronger coupling\n"
                        "T = 0.02\n"
                        "x = 10, 20, 30\n"
                        "grid_n = 64\n")
        cfg = load_config(str(path))
        assert cfg.c == 2.0 and cfg.T == 0.02
        assert cfg.x == (10.0, 20.0, 30.0)
        assert cfg.grid_n == 64

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("coupling = 2.0\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(str(path))

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("T = warm\n")
        with pytest.raises(ConfigError, match="bad value"):
            load_config(str(path))

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just a line\n")
        with pytest.raises(ConfigError, match="key=value"):
            load_config(str(path))

    def test_overrides_win(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("grid_n = 64\n")
        cfg = load_config(str(path), {"grid_n": 128, "contour_n": None})
        assert cfg.grid_n == 128
        assert cfg.contour_n == RunConfig().contour_n


class TestRendering:
    def test_complex_split_into_columns(self):
        rows = [{"a": 1.0 + 2.0j, "n": 3}]
        text = render_tables({"t": (rows, {"a": ("m", "q"),
                                           "n": ("m", "n")})}, "csv")
        assert "a_re,a_im,n" in text
        assert "1.0,2.0,3" in text

    def test_json_carries_provenance(self):
        rows = [{"v": 1.5}]
        doc = json.loads(render_tables(
            {"t": (rows, {"v": ("module", "quantity")})}, "json"))
        assert doc["t"]["provenance"]["v"] == ["module", "quantity"]
        assert doc["t"]["rows"] == [{"v": 1.5}]

    def test_unknown_format(self):
        with pytest.raises(ConfigError):
            render_tables({}, "yaml")


class TestCommands:
    def test_ground_state_scalars(self, tmp_path):
        out = tmp_path / "gs.json"
        assert main(["ground-state", "--format", "json",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        scalars = doc["scalars"]["rows"][0]
        assert abs(scalars["q"] - 1.1794505693979693) < 1e-9
        assert abs(scalars["Zq"] - 1.7310611572837569) < 1e-9
        assert abs(scalars["kF"] - np.pi * scalars["D"]) < 1e-12

    def test_lengths_formula(self, tmp_path):
        out = tmp_path / "len.json"
        assert main(["lengths", "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        rows = doc["lengths"]["rows"]
        assert [r["ell"] for r in rows] == [1, 2]
        r1 = rows[0]
        assert abs(r1["exponent"] - 2.0 * 1.7310611572837569 ** 2) < 1e-6
        assert abs(r1["inverse_length"]
                   - r1["exponent"] * np.pi * 0.01 / 1.5557302624186644) \
            < 1e-9

    def test_csv_json_equivalence(self, tmp_path):
        out_c = tmp_path / "len.csv"
        out_j = tmp_path / "len.json"
        assert main(["lengths", "--out", str(out_c)]) == 0
        assert main(["lengths", "--format", "json", "--out", str(out_j)]) == 0
        lines = [ln for ln in out_c.read_text().splitlines() if ln]
        header = lines[1].split(",")
        first = dict(zip(header, lines[2].split(",")))
        row = json.loads(out_j.read_text())["lengths"]["rows"][0]
        for key in header:
            assert abs(float(first[key]) - row[key]) < 1e-12

    def test_deterministic_output(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            assert main(["ground-state", "--format", "json",
                         "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_in_process_calls_match_fresh_processes(self, tmp_path, capsys):
        # the parser is built once per process; each later call must still
        # print what a fresh ``python -m bosegas.cli`` prints
        configs = []
        for name, text in (("a.cfg", "T = 0.02\nx = 5, 20\n"),
                           ("b.cfg", "c = 2.0\nh = 0.5\nx = 7.5\n")):
            configs.append(tmp_path / name)
            configs[-1].write_text(text)
        outs = []
        for cfg in configs:
            assert main(["correlator", "--config", str(cfg)]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] != outs[1]
        src = str(Path(bosegas.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        for cfg, out in zip(configs, outs):
            fresh = subprocess.run(
                [sys.executable, "-m", "bosegas.cli", "correlator",
                 "--config", str(cfg)], env=env, check=True,
                capture_output=True, timeout=120)
            assert fresh.stdout == out.encode()
        assert build_parser() is build_parser()

    def test_correlator_columns_sum(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("T = 0.05\nx = 15.0\nell_max = 2\n")
        out = tmp_path / "corr.json"
        assert main(["correlator", "--config", str(cfg), "--format", "json",
                     "--out", str(out)]) == 0
        row = json.loads(out.read_text())["correlator"]["rows"][0]
        total = (row["constant"] + row["ell0_term"]
                 + row["pair_1"] + row["pair_2"])
        assert abs(total - row["total"]) < 1e-12


class TestExitCodes:
    def test_invalid_physical_input(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("h = -1.0\n")
        assert main(["ground-state", "--config", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command,T", [("correlator", "inf"),
                                           ("lengths", "inf"),
                                           ("lengths", "nan"),
                                           ("lengths", "-1.0")])
    def test_bad_temperature(self, tmp_path, command, T):
        # these used to print NaN, inf or negative columns and exit 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"T = {T}\n")
        assert main([command, "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("command,line", [
        ("amplitudes", "ell_max = -3"), ("lengths", "ell_max = -3"),
        ("correlator", "ell_max = -3"), ("amplitudes", "alpha = nan"),
        ("amplitudes", "alpha = inf"), ("correlator", "x = ")])
    def test_bad_config_value(self, tmp_path, capsys, command, line):
        # a negative ell_max used to print empty tables or drop every
        # harmonic and exit 0; a non-finite alpha exited 3 with warnings;
        # an empty x list printed an empty correlator table and exited 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{line}\n")
        assert main([command, "--config", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unresolved_ground_state(self, tmp_path, capsys):
        # h/c^2 = 400 needs more than the default 96 Fermi nodes
        cfg = tmp_path / "run.cfg"
        cfg.write_text("c = 0.5\nh = 100.0\n")
        assert main(["ground-state", "--config", str(cfg)]) == 3
        assert "numerical failure:" in capsys.readouterr().err

    @pytest.mark.parametrize("grid_n", [2, 4, 6, 8, 16])
    def test_small_grid_unresolved(self, grid_n, capsys):
        # at c = h = 1 these grids cannot resolve even q = sqrt(h); the
        # coarse search of a half-size grid must not turn that into a
        # configuration error (exit 2)
        assert main(["ground-state", "--grid-n", str(grid_n)]) == 3
        assert "unresolved" in capsys.readouterr().err

    def test_smallest_resolved_grid(self):
        assert main(["ground-state", "--grid-n", "24"]) == 0

    @pytest.mark.parametrize("command", ["amplitudes", "correlator"])
    def test_nonfinite_amplitude(self, tmp_path, capsys, command):
        # h/c^2 = 100 at alpha = 0.2: the ell = 1, 2 term amplitudes are
        # NaN, which amplitudes used to print with exit 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("c = 0.1\nh = 1.0\nalpha = 0.2\n")
        with np.errstate(all="ignore"):
            assert main([command, "--config", str(cfg),
                         "--grid-n", "192"]) == 3
        assert "non-finite" in capsys.readouterr().err

    def test_overflowed_correlator(self, tmp_path, capsys):
        # at x = 1e-300 the envelopes and the ell = 0 term overflow; the
        # correlator used to print inf and NaN with exit 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("x = 1e-300\n")
        with np.errstate(all="ignore"):
            assert main(["correlator", "--config", str(cfg)]) == 3
        assert "non-finite" in capsys.readouterr().err

    def test_overflow_refused_without_warning(self, tmp_path, capsys):
        # the refusal used to follow numpy's overflow RuntimeWarnings
        cfg = tmp_path / "run.cfg"
        cfg.write_text("x = 1e-300\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["correlator", "--config", str(cfg)]) == 3
        assert "non-finite" in capsys.readouterr().err

    def test_weak_coupling_thermal(self, tmp_path):
        # h/c^2 = 100 on a ground state sized for it: the thermal solve
        # converges well inside the sweep cap
        cfg = tmp_path / "run.cfg"
        cfg.write_text("c = 0.1\nh = 1.0\nT = 0.002\n")
        assert main(["thermal", "--config", str(cfg), "--grid-n", "192",
                     "--out", str(tmp_path / "th.csv")]) == 0

    @pytest.mark.parametrize("argv", [
        ["correlator", "--contour-n", "-8"],
        ["verify", "--only", "grid-hygiene", "--contour-n", "-8"],
        ["ground-state", "--grid-n", "97"],
        ["amplitudes", "--contour-n", "0"],
        ["correlator", "--contour-n", "255"]])
    def test_bad_grid_or_contour_size(self, argv, capsys):
        # an empty contour has unit determinants and an odd grid lost a
        # node: both used to give a plausible wrong answer or a bare crash;
        # an odd contour is not closed under w -> -w, which the smooth
        # factor's single determinant needs
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mystery = 1\n")
        assert main(["thermal", "--config", str(cfg)]) == 2

    def test_fd_step_is_unknown(self, tmp_path):
        # the harmonic amplitudes are closed-form; no step size is left
        cfg = tmp_path / "run.cfg"
        cfg.write_text("fd_step = 1e-3\n")
        assert main(["correlator", "--config", str(cfg)]) == 2

    def test_bad_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_verify_single_check(self, tmp_path, capsys):
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outs:
            assert main(["verify", "--only", "gamma-integral",
                         "--out", str(out)]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert line.startswith("[PASS] gamma-integral")
        assert "margin" in line
        report = json.loads(outs[0].read_text())["checks"]
        assert report[0]["name"] == "gamma-integral"
        assert report[0]["passed"] is True
        for bound in report[0]["bounds"].values():
            assert bound["margin"] == bound["value"] / bound["limit"]
        # timings are console-only: the report file stays deterministic
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_verify_failing_check(self, monkeypatch, capsys):
        check = CHECKS["gamma-integral"]
        violated = []

        def beyond_limit(ws):
            details, bounds = check(ws)
            quantity, (_, op, limit) = next(iter(bounds.items()))
            violated.append(quantity)
            return details, {**bounds, quantity: (10.0 * limit, op, limit)}

        monkeypatch.setitem(CHECKS, "gamma-integral", beyond_limit)
        assert main(["verify", "--only", "gamma-integral"]) == 1
        line = capsys.readouterr().out.splitlines()[0]
        assert line.startswith("[FAIL] gamma-integral")
        assert f"{violated[0]} = " in line

    def test_bad_only_name(self):
        build_parser()  # the cached parser refuses it as a fresh one does
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--only", "no-such-check"])
        assert exc.value.code == 2

    def test_verify_takes_no_format(self, tmp_path, capsys):
        # the report is always JSON; a --format that is silently ignored
        # would write JSON into r.csv
        out = tmp_path / "r.csv"
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--format", "csv", "--out", str(out)])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err
        assert not out.exists()


class TestOverrides:
    """A valid --grid-n or --contour-n reaches the layer that uses it."""

    def test_grid_n_sets_the_curve(self, tmp_path):
        out = tmp_path / "gs.json"
        assert main(["ground-state", "--grid-n", "64", "--format", "json",
                     "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["curve"]["rows"]) == 64

    def test_contour_n_sets_the_plan(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 0.2\n")
        docs = {}
        for command in ("amplitudes", "correlator"):
            out = tmp_path / f"{command}.json"
            assert main([command, "--config", str(cfg), "--contour-n", "512",
                         "--format", "json", "--out", str(out)]) == 0
            docs[command] = json.loads(out.read_text())
        plan = AmplitudePlan(build_ground_state(ModelParams(c=1.0, h=1.0)),
                             512)
        for row in docs["amplitudes"]["amplitudes"]["rows"]:
            res = plan.amplitude(0.2, row["ell"])
            assert complex(row["B_smooth_re"], row["B_smooth_im"]) \
                == res.B_smooth
            assert complex(row["A_tilde_re"], row["A_tilde_im"]) \
                == res.A_tilde
        row = docs["correlator"]["correlator"]["rows"][0]
        for ell in (1, 2):
            assert complex(row[f"A_{ell}_re"], row[f"A_{ell}_im"]) \
                == plan.harmonic(ell)

    def test_run_checks_sizes_reach_the_base_plan(self):
        details = run_checks(["grid-hygiene"], grid_n=48,
                             contour_n=128)[0].details
        for (n, m), scalars in (((48, 128), details["base"]),
                                ((96, 256), details["doubled"])):
            plan = AmplitudePlan(
                build_ground_state(ModelParams(c=1.0, h=1.0), n), m)
            assert scalars["q"] == plan.gs.q
            for ell in (0, 1):
                assert scalars[f"A{ell}"] == plan.amplitude(0.2, ell).A_tilde
