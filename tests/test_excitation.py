"""Excited sector: quantum-number bookkeeping, closed thermal corrections,
root placement, the nonlinear solve on the deformed contour, and the decay
rates."""

import numpy as np
import pytest

import bosegas.thermal
from bosegas.excitation import (ConstraintError, ExcitationClass,
                                decay_rate_numeric, excitation_contour,
                                root_offsets, solve_u, theta_odd, u1_value)
from bosegas.groundstate import ModelParams, build_ground_state
from bosegas.numerics import NumericsError
from bosegas.thermal import solve_yang_yang
from bosegas.verification import (BENCHMARK_CLASS, decay_rate_closed,
                                  u1_function)


def polish_roots(sol, n_steps: int = 1) -> np.ndarray:
    """Newton refinement of the root conditions 1 + exp(-u(s)/T) = 0, using
    the continued u and its derivative; reports where the leading-order
    roots would move.  The target values of u are the odd multiples of
    i pi T nearest to the current u(s)."""
    T = sol.params.T

    def refine(s):
        for _ in range(n_steps):
            val = sol.u_at(s)
            target = 1j * np.pi * T * (2.0 * np.round(
                (val / (1j * np.pi * T) - 1.0) / 2.0) + 1.0)
            s = s - (val - target) / sol.u_prime_at(s)
        return s

    return np.array([refine(s) for s in sol.points])


class TestExcitationClass:
    def test_counts(self):
        cls = ExcitationClass(ell=1, p_plus=(1, 3), h_plus=(2,), h_minus=(1,))
        assert cls.n == 2

    def test_trivial(self):
        cls = ExcitationClass(ell=0)
        assert cls.n == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ExcitationClass(ell=1, p_plus=(0,), h_minus=(1,))

    def test_rejects_unordered(self):
        with pytest.raises(ValueError):
            ExcitationClass(ell=0, p_plus=(3, 2), h_plus=(1, 2))

    def test_rejects_non_integer(self):
        # int() would truncate these to (1,) and 2 without a word
        with pytest.raises(ValueError, match="integers"):
            ExcitationClass(ell=1, p_plus=(1.5,), h_minus=(1,))
        with pytest.raises(ValueError, match="integers"):
            ExcitationClass(ell=0, p_plus=(2.7,), h_plus=(1,))

    def test_rejects_count_mismatch(self):
        with pytest.raises(ValueError):
            ExcitationClass(ell=0, p_plus=(1,))

    def test_rejects_incompatible_ell(self):
        with pytest.raises(ValueError):
            ExcitationClass(ell=2, p_plus=(1,), h_minus=(1,))


class TestLinearCorrection:
    def test_edge_value(self, gs):
        u1 = u1_value(gs, 0.3, 1)
        assert abs(u1 - 2.0j * np.pi * (1.0 - 1.3 * gs.Zq)) < 1e-14

    def test_function_hits_edge_value(self, gs):
        f = u1_function(gs, 0.3, 1)
        assert abs(f(gs.q) - u1_value(gs, 0.3, 1)) < 1e-11

    def test_pure_imaginary_for_real_twist(self, gs):
        f = u1_function(gs, 0.2, 1)
        assert np.max(np.abs(np.real(f.values))) < 1e-14


class TestRootOffsets:
    def test_relaxed_half_planes(self, gs):
        roots = root_offsets(gs, BENCHMARK_CLASS, 0.0)
        assert [(r.side, r.half, r.k) for r in roots] == [(1, 1, 1),
                                                          (-1, -1, 1)]
        for r in roots:
            assert r.offset.real > 0

    def test_offset_outside_half_plane(self, gs):
        cls = ExcitationClass(ell=0, p_plus=(1,), h_plus=(1,))
        with pytest.raises(ConstraintError, match="half-plane"):
            root_offsets(gs, cls, 0.3)

    def test_leading_formula(self, gs):
        cls = ExcitationClass(ell=0, p_plus=(2,), h_plus=(1,))
        roots = root_offsets(gs, cls, 0.1)
        u1 = u1_value(gs, 0.1, 0)
        epsp = gs.eps0_prime_q
        assert roots.u1_at_q == u1
        eta, xi = roots.roots
        assert (eta.side, eta.half, eta.k) == (1, 1, 2)
        assert (xi.side, xi.half, xi.k) == (1, -1, 1)
        assert abs(eta.offset - (3.0 * np.pi + 1j * u1) / epsp) < 1e-14
        assert abs(xi.offset - (np.pi - 1j * u1) / epsp) < 1e-14

    def test_placed_roots_flank_fermi_point(self, gs):
        cls = ExcitationClass(ell=0, p_plus=(1,), h_plus=(1,))
        eta, xi = root_offsets(gs, cls, 0.1).points(gs.q, 0.01)
        assert eta.imag > 0 and xi.imag < 0
        assert abs(eta.real - gs.q) < 0.05


class TestScatteringPhase:
    def test_odd(self):
        lam = np.array([0.3, 1.0, 5.0])
        assert np.max(np.abs(theta_odd(lam, 1.0)
                             + theta_odd(-lam, 1.0))) < 1e-15

    def test_origin_and_tails(self):
        assert abs(theta_odd(0.0, 2.0)) < 1e-15
        assert abs(theta_odd(1e8, 2.0) - np.pi) < 1e-6

    def test_arctan_oracle(self):
        lam, c = 0.7, 1.3
        assert abs(theta_odd(lam, c) - 2.0 * np.arctan(lam / c)) < 1e-14


class TestSolveU:
    def test_temperature_gate(self, gs):
        params = ModelParams(c=1.0, h=1.0, T=0.2)
        with pytest.raises(ValueError, match="gated"):
            solve_u(params, BENCHMARK_CLASS, solve_yang_yang(params, gs))

    def test_trivial_class_reduces_to_thermal(self, gs):
        params = ModelParams(c=1.0, h=1.0, T=0.02)
        thermal = solve_yang_yang(params, gs)
        sol = solve_u(params, ExcitationClass(ell=0), thermal=thermal, gs=gs)
        # with no twist, no umklapp and no roots, u is the thermal energy
        assert np.max(np.abs(sol.u_values
                             - thermal.eps(np.real(sol.contour.nodes)))) \
            < 1e-10
        assert abs(decay_rate_numeric(sol)) < 1e-10

    def test_thermal_of_other_temperature_refused(self, gs):
        # a T = 0.02 thermal solution under T = 0.01 params used to give
        # bd_finite_T = 9.4e-22 - 1.1e-21i instead of 9.7e-18 - 1.2e-17i
        thermal = solve_yang_yang(ModelParams(c=1.0, h=1.0, T=0.02), gs)
        with pytest.raises(ValueError, match=r"another \(c, h, T\)"):
            solve_u(ModelParams(c=1.0, h=1.0, T=0.01), BENCHMARK_CLASS,
                    thermal=thermal, gs=gs)

    def test_thermal_on_other_ground_state_refused(self, gs):
        params = ModelParams(c=1.0, h=1.0, T=0.01)
        other = build_ground_state(ModelParams(c=1.0, h=1.0), n_nodes=128)
        thermal = solve_yang_yang(params, other)
        with pytest.raises(ValueError, match="another ground state"):
            solve_u(params, BENCHMARK_CLASS, thermal=thermal, gs=gs)

    def test_ground_state_of_other_coupling_refused(self, workspace):
        # a c = 2 ground state under c = 1 params used to give
        # bd_finite_T = -3.3e-16 + 9.3e-16i; it now reaches the solve only
        # through its thermal solution
        thermal = solve_yang_yang(ModelParams(c=2.0, h=1.0, T=0.01),
                                  workspace.ground_state(c=2.0))
        with pytest.raises(ValueError, match=r"another \(c, h, T\)"):
            solve_u(ModelParams(c=1.0, h=1.0, T=0.01), BENCHMARK_CLASS,
                    thermal)

    def test_thermal_alone_carries_its_ground_state(self):
        # a 128-node ground state differs from the default 96-node one in
        # the last digits, so a second build would show in u
        params = ModelParams(c=1.0, h=1.0, T=0.01)
        gs128 = build_ground_state(ModelParams(c=1.0, h=1.0), n_nodes=128)
        thermal = solve_yang_yang(params, gs128)
        alone = solve_u(params, BENCHMARK_CLASS, thermal=thermal)
        both = solve_u(params, BENCHMARK_CLASS, thermal=thermal, gs=gs128)
        assert np.array_equal(alone.u_values, both.u_values)

    def test_contour_on_the_live_panels(self, workspace):
        # every panel of the thermal grid is live, so the contour is the
        # whole grid lifted: its real parts are the nodes, bit for bit
        thermal = workspace.thermal(0.02)
        sol = workspace.benchmark_solution(0.02)
        full = excitation_contour(thermal, sol.roots.u1_at_q)
        assert sol.thermal is thermal
        assert np.array_equal(sol.contour.nodes.real, thermal.grid.nodes)
        assert np.array_equal(sol.contour.nodes, full.nodes)
        assert np.array_equal(sol.contour.weights, full.weights)

    def test_tail_refusal_at_the_live_ends(self, workspace, monkeypatch):
        # a dead level of 5 T ends the grid inside the thermal tail, where
        # the log weight of eps has not decayed: Yang-Yang itself refuses
        params = workspace.thermal(0.02).params
        monkeypatch.setattr(bosegas.thermal, "DEAD_EPS_OVER_T", 5.0)
        with pytest.raises(NumericsError, match="does not decay"):
            solve_yang_yang(params, workspace.ground_state())

    def test_benchmark_converges(self, workspace):
        sol = workspace.benchmark_solution(0.01)
        assert sol.residual <= 1e-12
        # the contour is genuinely deformed for this class
        assert np.max(np.abs(sol.contour.nodes.imag)) > 0

    def test_continuation_matches_contour_values(self, workspace):
        sol = workspace.benchmark_solution(0.01)
        idx = sol.contour.nodes.size // 3
        assert abs(sol.u_at(sol.contour.nodes[idx])
                   - sol.u_values[idx]) < 1e-9

    def test_polished_roots_stay_close(self, workspace):
        sol = workspace.benchmark_solution(0.01)
        T = sol.params.T
        moves = np.abs(polish_roots(sol, n_steps=2) - sol.points)
        # leading-order placement is accurate to one more power of T
        assert max(moves) < 5.0 * T ** 2


@pytest.mark.parametrize("t_over_h", [0.02, 0.005])
@pytest.mark.parametrize("ratio", [0.01, 1.0, 2.0])
def test_fixed_point_solve_across_coupling(ratio, t_over_h):
    # h/c^2 over the whole range of the benchmark class, at h = 1
    c, h = 1.0 / np.sqrt(ratio), 1.0
    T = t_over_h * h
    params = ModelParams(c=c, h=h, T=T)
    gs = build_ground_state(ModelParams(c=c, h=h))
    sol = solve_u(params, BENCHMARK_CLASS, solve_yang_yang(params, gs))
    assert sol.residual <= 1e-12 * max(h, T)
    nodes = sol.contour.nodes
    assert np.max(np.abs(sol.u_at(nodes) - sol.u_values)) <= 1e-11 * h


class TestDecayRate:
    def test_closed_form_structure(self, gs):
        cls = BENCHMARK_CLASS
        T = 0.01
        p = decay_rate_closed(gs, cls, 0.0, T)
        assert abs(p.imag + 2.0 * cls.ell * gs.kF) < 1e-14
        # quantum-number sum of p+ = (1,) and h- = (1,)
        bracket = (cls.ell * gs.Zq) ** 2 - cls.ell ** 2 - cls.n + 2
        assert abs(p.real - 2.0 * np.pi * T * bracket / gs.v0) < 1e-14

    def test_numeric_approaches_closed(self, gs, workspace):
        T = 0.005
        sol = workspace.benchmark_solution(T)
        pn = decay_rate_numeric(sol)
        pc = decay_rate_closed(gs, BENCHMARK_CLASS, 0.0, T)
        assert abs(pn - pc) < 50.0 * T ** 2

    def test_positive_real_part(self, gs):
        # correlations decay: the closed rate has a positive real part
        assert decay_rate_closed(gs, BENCHMARK_CLASS, 0.0, 0.01).real > 0
