"""End-to-end acceptance gate.

Each test runs one named check of the built-in verification suite on the
shared session workspace and asserts the individual bounds, so a failure
reports which quantity drifted and by how much.
"""

from bosegas.verification import (check_assembly, check_decay_rate,
                                  check_discrete_limit,
                                  check_edge_asymptotics,
                                  check_excited_expansion, check_free_fermion,
                                  check_gamma_integral, check_grid_hygiene,
                                  check_smooth_amplitude, check_thermal_low_t,
                                  check_w_identity)


def test_free_fermion_limit(workspace):
    passed, d = check_free_fermion(workspace)
    assert d["q_err"] <= 1e-3, f"Fermi boundary off by {d['q_err']:.2e}"
    assert d["Zq_err"] <= 1e-3, f"dressed charge off by {d['Zq_err']:.2e}"
    assert d["v0_err"] <= 2e-3, f"sound velocity off by {d['v0_err']:.2e}"
    assert d["D_err"] <= 1e-3, f"density off by {d['D_err']:.2e}"
    assert passed


def test_thermal_low_temperature_law(workspace):
    passed, d = check_thermal_low_t(workspace)
    assert d["exponent"] >= 2.7, (
        f"remainder beyond the quadratic correction decays like "
        f"T^{d['exponent']:.2f}, expected faster than T^2.7")
    assert d["coef_rel_err"][-1] <= 0.02, (
        f"quadratic coefficient at the origin off by "
        f"{d['coef_rel_err'][-1]:.2%}")
    assert passed


def test_excited_state_expansion(workspace):
    passed, d = check_excited_expansion(workspace)
    assert d["exponent"] >= 2.7, (
        f"excited-state remainder decays like T^{d['exponent']:.2f}, "
        f"expected faster than T^2.7")
    assert passed


def test_decay_rate(workspace):
    passed, d = check_decay_rate(workspace)
    assert d["exponent"] >= 1.7, (
        f"numeric vs closed decay rate differs at order T^{d['exponent']:.2f},"
        f" expected faster than T^1.7")
    assert max(d["im_closed_err"]) <= 1e-6, (
        "oscillation frequency of the closed rate is not twice the Fermi "
        "momentum per unit twist")
    assert passed


def test_configuration_sum_identity(workspace):
    passed, d = check_w_identity(workspace)
    assert d["worst"] <= 1e-8, (
        f"worst relative deviation of the configuration sum from its "
        f"closed form: {d['worst']:.2e}")
    assert passed


def test_gamma_integral_identity(workspace):
    passed, d = check_gamma_integral(workspace)
    assert max(d["residuals"]) <= 1e-8, (
        f"integral identity residuals {d['residuals']}")
    assert passed


def test_smooth_amplitude_invariances(workspace):
    passed, d = check_smooth_amplitude(workspace)
    assert d["theta_dev"] <= 1e-6, (
        f"reference-point dependence {d['theta_dev']:.2e}")
    assert d["near_one_err"] <= 1e-3, (
        f"identity limit at vanishing twist off by {d['near_one_err']:.2e}")
    assert d["at_integer"] == 0.0
    assert d["fd_slope"] <= 1e-6, (
        f"first twist derivative at the integer point {d['fd_slope']:.2e}")
    assert passed


def test_discrete_factor_limit(workspace):
    passed, d = check_discrete_limit(workspace)
    assert d["exponent"] >= 0.7, (
        f"rescaled finite-T factor converges like T^{d['exponent']:.2f}, "
        f"expected faster than T^0.7")
    assert passed


def test_edge_asymptotics(workspace):
    passed, d = check_edge_asymptotics(workspace)
    assert d["edge_dev"][1] <= 0.15, (
        f"per-root edge estimate off by {d['edge_dev'][1]:.3f} at T=0.01")
    assert d["double_integral_dev"][1] <= 0.15, (
        f"double-integral estimate off by "
        f"{d['double_integral_dev'][1]:.3f} at T=0.01")
    assert all(a > b for a, b in zip(d["edge_dev"], d["edge_dev"][1:])), \
        "per-root deviations do not decrease with T"
    assert all(a > b for a, b in zip(d["double_integral_dev"],
                                     d["double_integral_dev"][1:])), \
        "double-integral deviations do not decrease with T"
    assert passed


def test_assembled_series(workspace):
    passed, d = check_assembly(workspace)
    assert d["period_dev"] <= 1e-10, (
        f"unit-twist periodicity broken at {d['period_dev']:.2e}")
    assert d["reality"] <= 1e-9, (
        f"imaginary part of the assembled correlator {d['reality']:.2e}")
    assert d["ell0_fd_rel"] <= 1e-6, (
        f"finite-difference route for the non-oscillating term off by "
        f"{d['ell0_fd_rel']:.2e}")
    assert passed


def test_grid_hygiene(workspace):
    passed, d = check_grid_hygiene(workspace)
    worst = max(d["rel_change"].values())
    assert worst <= 1e-8, (
        f"grid/contour doubling moves a pinned scalar by {worst:.2e} "
        f"({d['rel_change']})")
    assert passed
