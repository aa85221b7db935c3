"""End-to-end acceptance gate: each test runs one verification check on
the shared workspace and asserts every bound in the table it returns, so a
failure names the quantity, its value and its limit."""

import operator

from bosegas.numerics import ConjugatePairing
from bosegas.verification import CHECKS, run_checks

OPS = {"<=": operator.le, ">=": operator.ge}


def assert_bounds(name, workspace):
    _, bounds = CHECKS[name](workspace)
    assert bounds, f"{name} states no bounds"
    violated = [f"{quantity} = {value!r}, needs {op} {limit!r}"
                for quantity, (value, op, limit) in bounds.items()
                if not OPS[op](value, limit)]
    assert not violated, f"{name}: " + "; ".join(violated)


def test_free_fermion_limit(workspace):
    assert_bounds("free-fermion", workspace)


def test_thermal_low_temperature_law(workspace):
    assert_bounds("thermal-low-t", workspace)


def test_excited_state_expansion(workspace):
    assert_bounds("excited-expansion", workspace)


def test_decay_rate(workspace):
    assert_bounds("decay-rate", workspace)


def test_configuration_sum_identity(workspace):
    assert_bounds("w-identity", workspace)


def test_gamma_integral_identity(workspace):
    assert_bounds("gamma-integral", workspace)


def test_smooth_amplitude_invariances(workspace):
    assert_bounds("smooth-amplitude", workspace)


def test_smooth_amplitude_sees_a_determinant_offset(monkeypatch):
    # the plan's real-form log-determinant off by 1e-4 moves B_smooth by
    # 2e-4: theta_dev, which holds the plan against the complex route,
    # fails, and so does near_one_err, which reads 2e-4 against its 1e-6
    logabsdet = ConjugatePairing.logabsdet
    monkeypatch.setattr(ConjugatePairing, "logabsdet",
                        lambda self, t: logabsdet(self, t) + 1e-4)
    result, = run_checks(["smooth-amplitude"])
    assert not result.passed and not result.bounds["theta_dev"].holds
    assert not result.bounds["near_one_err"].holds


def test_discrete_factor_limit(workspace):
    assert_bounds("discrete-limit", workspace)


def test_edge_asymptotics(workspace):
    assert_bounds("edge-asymptotics", workspace)


def test_assembled_series(workspace):
    assert_bounds("assembly", workspace)


def test_grid_hygiene(workspace):
    assert_bounds("grid-hygiene", workspace)
