"""Finite-temperature solve: stable logarithms, fixed-point convergence and
the low-temperature law."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bosegas.groundstate import ModelParams
from bosegas.numerics import NumericsError
from bosegas.thermal import (_fixed_point, eps2_at, solve_yang_yang,
                             stable_log1pexp)


class TestStableLog1pExp:
    @given(st.floats(min_value=-30.0, max_value=30.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_naive(self, x):
        naive = np.log1p(np.exp(-x))
        assert abs(stable_log1pexp(np.array(x)) - naive) \
            <= 1e-14 * (1.0 + abs(naive))

    def test_deep_tails(self):
        assert stable_log1pexp(np.array(700.0)) < 1e-300 * 1e10
        assert abs(stable_log1pexp(np.array(-700.0)) - 700.0) < 1e-12

    def test_complex_branch(self):
        z = np.array(2.0 + 0.3j)
        assert abs(stable_log1pexp(z) - np.log(1.0 + np.exp(-z))) < 1e-15
        z = np.array(-2.0 + 0.3j)
        assert abs(stable_log1pexp(z) - np.log(1.0 + np.exp(-z))) < 1e-14

    def test_monotone_decreasing(self):
        x = np.linspace(-5.0, 5.0, 101)
        assert np.all(np.diff(stable_log1pexp(x)) < 0)


@pytest.fixture(scope="module")
def thermal(gs):
    return solve_yang_yang(ModelParams(c=1.0, h=1.0, T=0.02), gs)


class TestYangYangSolve:
    def test_requires_positive_temperature(self, gs):
        with pytest.raises(ValueError):
            solve_yang_yang(ModelParams(c=1.0, h=1.0, T=0.0), gs)

    def test_converged(self, thermal):
        assert thermal.residual <= 1e-12
        assert thermal.iterations < 500

    def test_even(self, thermal):
        lam = np.array([0.25, 0.8, 1.5])
        assert np.max(np.abs(thermal.eps_at(lam)
                             - thermal.eps_at(-lam))) < 1e-11

    def test_tail_below_bare(self, thermal):
        # the tail integral is positive, so eps sits below the bare
        # dispersion, by an amount bounded by the slow kernel tail
        lam = 0.95 * thermal.cutoff
        gap = (lam ** 2 - 1.0) - np.real(thermal.eps_at(lam))
        assert 0.0 < gap < 0.2

    def test_fixed_point_cap_raises(self):
        # f = -10 + 8 log(1 + e^{-f}) has slope about -6 at its root, so the
        # half-damped iteration oscillates and never meets the tolerance
        kmat = np.array([[-16.0 * np.pi]])
        with pytest.raises(NumericsError, match="not converged"):
            _fixed_point(np.array([-10.0]), kmat, 1.0, 1e-12)


class TestLowTemperatureLaw:
    def test_quadratic_correction(self, gs, thermal):
        T = thermal.params.T
        lam = np.linspace(-0.9 * gs.q, 0.9 * gs.q, 21)
        pred = gs.eps0(lam) + T * T * eps2_at(gs, lam)
        assert np.max(np.abs(thermal.eps_at(lam) - pred)) < 30.0 * T ** 4

    def test_correction_negative_at_origin(self, gs):
        # the resolvent columns are positive, so the quadratic shift is down
        assert np.real(eps2_at(gs, 0.0)) < 0

    def test_sampled_matches_pointwise(self, gs):
        vals = -(np.pi ** 2 / (6.0 * gs.eps0_prime_q)) * (
            gs.R_plus.values + gs.R_minus.values)
        assert np.max(np.abs(vals - eps2_at(gs, gs.grid.nodes))) < 1e-13
