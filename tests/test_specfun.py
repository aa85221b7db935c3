"""Special-function oracles: log-Gamma, Gamma ratios, Barnes G, and the
Laplace-type Gamma identity of the gamma-integral check."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import loggamma

from bosegas.specfun import (GammaPoleError, barnes_g, barnes_g_one,
                             gamma_ratio, ln_barnes_g, ln_gamma)
from bosegas.verification import (_laplace_integral, check_gamma_integral,
                                  verify_gamma_integral_identity)

# (a, b, p) triples of the gamma-integral verification check
VERIFY_TRIPLES = [(0.5, 0.5, 1.0), (0.3, 0.7, 1.0), (-0.4, 0.4, 2.0)]


def stirling_ln_gamma(z):
    """Large-|z| oracle: Stirling series with three tail terms.

    This is the algorithm of ln_gamma itself, truncated earlier; the sweep
    against scipy's loggamma is the independent oracle."""
    return ((z - 0.5) * np.log(z) - z + 0.5 * np.log(2.0 * np.pi)
            + 1.0 / (12.0 * z) - 1.0 / (360.0 * z ** 3)
            + 1.0 / (1260.0 * z ** 5))


class TestLnGamma:
    def test_at_one(self):
        assert ln_gamma(1.0) == 0.0

    def test_at_half(self):
        assert abs(ln_gamma(0.5) - 0.5 * np.log(np.pi)) < 1e-14

    def test_recursion_oracle(self):
        # push z=3+4i up by 20 and come back down through the recursion,
        # seeding with the Stirling series at the far end
        z = 3.0 + 4.0j
        seed = stirling_ln_gamma(z + 20)
        for j in range(19, -1, -1):
            seed -= np.log(z + j)
        assert abs(ln_gamma(z) - seed) < 1e-12 * (1.0 + abs(seed))

    def test_pole_raises(self):
        with pytest.raises(GammaPoleError):
            ln_gamma(0.0)
        with pytest.raises(GammaPoleError):
            ln_gamma(-3.0)

    @given(st.complex_numbers(min_magnitude=0.1, max_magnitude=20.0,
                              allow_nan=False, allow_infinity=False))
    @settings(max_examples=100, deadline=None)
    def test_conjugation(self, z):
        if abs(z.imag) < 1e-3:
            z = z + 0.5j
        lhs = ln_gamma(np.conj(z))
        rhs = np.conj(ln_gamma(z))
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))

    def test_matches_scipy_in_the_square(self):
        rng = np.random.default_rng(7)
        z = rng.uniform(-30.0, 30.0, 20000) + 1j * rng.uniform(-30.0, 30.0,
                                                               20000)
        ref = loggamma(z)
        err = np.abs(ln_gamma(z) - ref) / np.maximum(1.0, np.abs(ref))
        assert err.max() <= 1e-13

    def test_matches_scipy_on_the_real_axis(self):
        # the negative axis carries scipy's branch for x + 0j
        x = np.linspace(-30.0, 30.0, 20001) + 1e-3 / np.pi
        x = x[np.abs(x - np.round(x)) > 1e-3]
        ref = loggamma(x.astype(complex))
        err = np.abs(ln_gamma(x) - ref) / np.maximum(1.0, np.abs(ref))
        assert err.max() <= 1e-13

    def test_array_with_pole_raises(self):
        with pytest.raises(GammaPoleError):
            ln_gamma(np.array([0.5, 1.5 + 1.0j, -4.0, 3.0]))

    def test_array_shape_kept(self):
        z = np.array([[1.0, 2.5], [0.3 + 1.0j, -1.5]])
        out = ln_gamma(z)
        assert out.shape == z.shape
        assert abs(out[1, 0] - ln_gamma(0.3 + 1.0j)) <= 1e-15

    def test_exp_matches_gamma(self):
        from scipy.special import gamma
        for z in (0.3, 2.7, 1.5 + 0.5j, -0.3 + 1.0j, 40.0):
            assert abs(np.exp(ln_gamma(z)) - gamma(z)) <= 1e-13 * abs(gamma(z))


class TestGammaRatio:
    def test_trivial_equal(self):
        assert gamma_ratio([2.0], [1.0]) == 1.0

    def test_factorial_ratio(self):
        assert abs(gamma_ratio([5.0], [3.0]) - 12.0) < 1e-12

    def test_reflection_at_half(self):
        val = gamma_ratio([1.5, 0.5], [1.0, 1.0])
        assert abs(val - np.pi / 2.0) < 1e-13

    @given(st.floats(min_value=-0.49, max_value=0.49))
    @settings(max_examples=100, deadline=None)
    def test_reflection_formula(self, nu):
        if abs(nu) < 1e-8:
            nu = 0.25
        val = gamma_ratio([1.0 + nu, 1.0 - nu], [1.0, 1.0])
        assert abs(val - np.pi * nu / np.sin(np.pi * nu)) <= 1e-12

    def test_denominator_pole_gives_zero(self):
        assert gamma_ratio([1.0], [0.0]) == 0.0
        assert gamma_ratio([2.5], [-3.0]) == 0.0

    def test_numerator_pole_raises(self):
        with pytest.raises(GammaPoleError):
            gamma_ratio([-1.0], [2.0])

    def test_paired_poles_residue_ratio(self):
        # Gamma(z) ~ (-1)^n / (n! (z+n)) near z=-n, so the pole at -1 over
        # the pole at -2 leaves the finite ratio -2!/1! = -2
        assert abs(gamma_ratio([-1.0], [-2.0]) + 2.0) < 1e-12


def barnes_product_oracle(z, n_terms):
    """Weierstrass-type product for log G(1+z), truncated at n_terms."""
    euler_gamma = 0.5772156649015328606
    k = np.arange(1, n_terms + 1, dtype=float)
    series = np.sum(k * np.log1p(z / k) - z + z * z / (2.0 * k))
    return (0.5 * z * np.log(2.0 * np.pi)
            - 0.5 * (z + z * z * (1.0 + euler_gamma)) + series)


class TestBarnesG:
    def test_normalization(self):
        assert barnes_g(1.0) == 1.0 + 0.0j or abs(barnes_g(1.0) - 1.0) < 1e-13
        assert abs(barnes_g(2.0) - 1.0) < 1e-13
        assert abs(barnes_g(3.0) - 1.0) < 1e-13

    def test_g_of_four(self):
        assert abs(barnes_g(4.0) - 2.0) < 1e-12

    def test_zeros(self):
        assert barnes_g(0.0) == 0.0
        assert barnes_g(-2.0) == 0.0

    def test_product_formula_oracle(self):
        # truncated product with Richardson in 1/N (remainder ~ c/N)
        z = 0.5
        n = 10 ** 5
        f_n = barnes_product_oracle(z, n)
        f_2n = barnes_product_oracle(z, 2 * n)
        extrap = 2.0 * f_2n - f_n
        assert abs(np.log(barnes_g(1.5)) - extrap) < 1e-9

    @given(st.complex_numbers(min_magnitude=0.05, max_magnitude=10.0,
                              allow_nan=False, allow_infinity=False))
    @settings(max_examples=100, deadline=None)
    def test_recursion(self, z):
        if abs(z.imag) < 1e-3 and abs(z.real - round(z.real)) < 1e-3:
            z = z + 0.3 + 0.2j
        lhs = barnes_g(z + 1.0)
        rhs = np.exp(ln_gamma(z)) * barnes_g(z)
        assert abs(lhs - rhs) <= 1e-11 * (1.0 + abs(lhs))

    def test_ln_barnes_matches(self):
        for z in (1.7, 3.2 + 1.1j, 0.4):
            assert abs(np.exp(ln_barnes_g(z)) - barnes_g(z)) \
                <= 1e-12 * abs(barnes_g(z))


class TestBarnesGOne:
    def test_at_zero(self):
        assert abs(barnes_g_one(0.0) - 1.0) < 1e-12

    def test_at_one(self):
        assert barnes_g_one(1.0) == 0.0

    def test_evenness_exact(self):
        for x in (0.3, 1.7 + 0.2j, -2.5):
            assert barnes_g_one(x) == barnes_g_one(-x)

    def test_half(self):
        val = barnes_g_one(0.5)
        assert abs(val - barnes_g(1.5) * barnes_g(0.5)) < 1e-14 * abs(val)


class TestGammaIntegralIdentity:
    def test_equal_endpoints_vanish(self):
        assert verify_gamma_integral_identity(0.4, 0.4, 1.0) == 0.0

    @pytest.mark.parametrize("a,b,p", [(0.5, -0.2, 1.5)])
    def test_residual_small(self, workspace, a, b, p):
        # a triple outside the check's own, held to the check's limit
        _, bounds = check_gamma_integral(workspace)
        _, op, limit = bounds["max_residual"]
        assert op == "<=" and verify_gamma_integral_identity(a, b, p) <= limit

    @pytest.mark.parametrize("a,b,p", VERIFY_TRIPLES)
    def test_panels_match_adaptive_quadrature(self, a, b, p):
        def integrand(w):
            if w < 1e-6:
                # series of the bracket: (b^2 - a^2)/2 * w + O(w^2), over w
                return np.exp(-p * w) * 0.5 * (b * b - a * a)
            damp = 1.0 - np.exp(-2.0 * np.pi * w)
            br = (b - a) - 2.0 * np.pi * (np.exp(-(np.pi + a) * w)
                                          - np.exp(-(np.pi + b) * w)) / damp
            return np.exp(-p * w) * br / w
        ref, _ = quad(integrand, 0.0, np.inf, limit=200, epsabs=1e-13,
                      epsrel=1e-13)
        assert abs(_laplace_integral(a, b, p) - ref) <= 1e-11

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            verify_gamma_integral_identity(0.1, 0.2, -1.0)
        with pytest.raises(ValueError):
            verify_gamma_integral_identity(10.0, 0.2, 1.0)
