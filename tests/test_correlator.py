"""Assembled series: hyperbolic envelopes, closed-form harmonic amplitudes
against finite differences, free-fermion anchor and structural properties
of the density-density correlator."""

import warnings

import numpy as np
import pytest

from bosegas.amplitude import AmplitudePlan
from bosegas.correlator import (density_correlator, ell0_closed,
                                ell0_term_fd, envelope_power,
                                generating_asymptotics, harmonic_amplitude)
from bosegas.groundstate import ModelParams, build_ground_state
from bosegas.numerics import NumericsError
from bosegas.verification import harmonic_fd


class TestEnvelope:
    def test_formula(self, gs):
        x, T, e = 50.0, 0.02, 1.7
        base = (np.pi * T / gs.v0) / np.sinh(np.pi * T * x / gs.v0)
        assert abs(envelope_power(gs, x, T, e) - base ** e) < 1e-15

    def test_unit_exponent_zero(self, gs):
        assert envelope_power(gs, 123.0, 0.01, 0.0) == 1.0 + 0.0j

    def test_monotone_in_x(self, gs):
        vals = [abs(envelope_power(gs, x, 0.02, 2.0))
                for x in (20.0, 40.0, 80.0)]
        assert vals[0] > vals[1] > vals[2]

    def test_power_law_regime(self, gs):
        # pi T x / v0 << 1: sinh is nearly linear, envelope ~ x^{-e}
        x, T, e = 1.0, 1e-6, 2.0
        assert abs(envelope_power(gs, x, T, e) - x ** -e) < 1e-9

    @pytest.mark.parametrize("T, x", [(1e-318, 10.0), (1e-320, 10.0),
                                      (1e-322, 10.0), (1e-320, 1e-5)],
                             ids=["1e-318", "1e-320", "1e-322", "1e-320-x"])
    def test_subnormal_temperature(self, gs, T, x):
        # pi T / v0 and sinh(pi T x / v0) are subnormal here; their ratio
        # was off by 7.3e-6, 7.3e-4 and 7.2e-2 at x = 10, and at x = 1e-5
        # a = pi T x / v0 is 0, where 2a / -expm1(-2a) read 0/0
        e = gs.exponent(1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for ref, got in ((envelope_power(gs, x, 1e-300, e),
                              envelope_power(gs, x, T, e)),
                             (ell0_closed(gs, x, 1e-300),
                              ell0_closed(gs, x, T))):
                assert abs(got - ref) <= 1e-15 * abs(ref)

    def test_far_distance(self, gs, plan):
        # pi T x / v0 is past 745, where e^{-a} underflows: the log of the
        # base read -inf, with a warning, and the zero exponent gave NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            total, _ = generating_asymptotics(plan, 0.0, 1e5, 0.01, 1)
            series = density_correlator(plan, 1e5, 0.01)
        assert total == 1.0
        assert series.total == gs.D ** 2
        assert [t.value for t in series.harmonics] == [0.0] * 4


class TestGeneratingAsymptotics:
    def test_invalid_arguments(self, plan):
        with pytest.raises(ValueError):
            generating_asymptotics(plan, 0.2, -1.0, 0.01, 1)
        for x, T in ((np.inf, 0.01), (1.0, np.inf), (np.nan, 0.01),
                     (1.0, np.nan)):
            with pytest.raises(ValueError):
                generating_asymptotics(plan, 0.2, x, T, 1)
        with pytest.raises(ValueError, match="ell_max"):
            generating_asymptotics(plan, 0.2, 200.0, 0.01, -1)

    def test_overflow_raises(self, plan):
        with pytest.warns(UserWarning), np.errstate(all="ignore"):
            with pytest.raises(NumericsError, match="non-finite"):
                generating_asymptotics(plan, 0.2, 1e-300, 0.01, 1)

    def test_warns_below_regime(self, plan):
        with pytest.warns(UserWarning, match="asymptotic regime"):
            generating_asymptotics(plan, 0.2, 1.0, 0.001, 1)

    def test_zero_twist_is_unity(self, gs, plan):
        # every harmonic except ell = 0 vanishes at zero twist
        x = 2.0 * gs.v0 / (np.pi * 0.01)
        total, terms = generating_asymptotics(plan, 0.0, x, 0.01, 2)
        assert abs(total - 1.0) < 1e-12
        lead = terms[0]
        assert lead.ell == 0 and abs(lead.value - 1.0) < 1e-12

    def test_terms_sorted_by_envelope(self, gs, plan):
        x = 2.0 * gs.v0 / (np.pi * 0.01)
        _, terms = generating_asymptotics(plan, 0.2, x, 0.01, 2)
        mags = [abs(t.envelope) for t in terms]
        assert mags == sorted(mags, reverse=True)

    def test_oscillation_momenta(self, gs, plan):
        x = 2.0 * gs.v0 / (np.pi * 0.01)
        _, terms = generating_asymptotics(plan, 0.2, x, 0.01, 1)
        by_ell = {t.ell: t for t in terms}
        for ell in (-1, 0, 1):
            assert abs(by_ell[ell].oscillation
                       - 2.0 * (0.2 + ell) * gs.kF) < 1e-12


class TestHarmonicAmplitude:
    def test_zero_harmonic_rejected(self, gs):
        with pytest.raises(ValueError):
            harmonic_amplitude(gs, 0)

    def test_real_and_conjugate_consistent(self, gs):
        a1 = harmonic_amplitude(gs, 1)
        assert abs(a1.imag) < 1e-8 * abs(a1)
        a1m = harmonic_amplitude(gs, -1)
        assert abs(a1m - np.conj(a1)) < 1e-8 * abs(a1)

    def test_free_fermion_anchor(self, workspace):
        # free fermions: -sin^2(kF x)/(pi x)^2 splits into the constant
        # -1/(2 pi^2 x^2) plus cos(2 kF x)/(2 pi^2 x^2), so the amplitude
        # of the e^{2 i kF x} harmonic is +1/(4 pi^2)
        gs_free = workspace.ground_state(c=1e6)
        a1 = harmonic_amplitude(gs_free, 1)
        assert abs(a1 - 1.0 / (4.0 * np.pi ** 2)) \
            <= 5e-3 / (4.0 * np.pi ** 2)

    def test_higher_harmonic_is_smaller(self, gs):
        assert abs(harmonic_amplitude(gs, 2)) < abs(harmonic_amplitude(gs, 1))


@pytest.fixture(scope="module", params=[0.01, 0.1, 1.0],
                ids=lambda r: f"h/c2={r}")
def coupling_plan(request):
    gs = build_ground_state(ModelParams(c=1.0 / np.sqrt(request.param),
                                        h=1.0))
    return AmplitudePlan(gs)


@pytest.mark.parametrize("ell", [1, 2, -1])
def test_closed_form_matches_finite_differences(coupling_plan, ell):
    closed = coupling_plan.harmonic(ell)
    fd, _ = harmonic_fd(coupling_plan, ell)
    assert abs(closed - fd) <= 1e-6 * abs(closed)


@pytest.mark.xfail(strict=True, reason="weak coupling h/c^2 = 8: the "
                   "default contour does not resolve A_1, and nothing "
                   "refuses it (ROADMAP item 3)")
def test_weak_coupling_a1_survives_doubling_or_refuses():
    c = 1.0 / np.sqrt(8.0)
    try:
        base = harmonic_amplitude(
            build_ground_state(ModelParams(c=c, h=1.0), n_nodes=96), 1,
            contour_n=256)
        fine = harmonic_amplitude(
            build_ground_state(ModelParams(c=c, h=1.0), n_nodes=192), 1,
            contour_n=512)
    except NumericsError:
        return
    assert abs(fine - base) <= 1e-6 * abs(fine)


@pytest.fixture(scope="module")
def series(gs, plan):
    T = 0.05
    x = 1.5 * gs.v0 / (np.pi * T)
    return density_correlator(plan, x, T, ell_max=2)


class TestDensityCorrelator:
    def test_invalid_arguments(self, plan):
        with pytest.raises(ValueError):
            density_correlator(plan, 10.0, 0.0)
        for x, T in (([10.0, np.inf], 0.05), (10.0, np.inf),
                     ([np.nan], 0.05), (10.0, np.nan)):
            with pytest.raises(ValueError):
                density_correlator(plan, x, T)
        with pytest.raises(ValueError, match="ell_max"):
            density_correlator(plan, 10.0, 0.05, ell_max=-3)

    def test_constant_part(self, gs, series):
        assert abs(series.constant - gs.D ** 2) < 1e-14

    def test_ell0_closed_form(self, gs, series):
        expect = -(series.T * gs.Zq / gs.v0) ** 2 / (
            2.0 * np.sinh(np.pi * series.T * series.x / gs.v0) ** 2)
        assert abs(series.ell0_term - expect) < 1e-15
        assert series.ell0_term < 0

    def test_ell0_tends_to_zero_temperature(self, gs, plan):
        # T^2 and sinh^2 both underflow at T = 1e-300; the term used to
        # read NaN
        for x in (1.0, 10.0, 123.0):
            got = density_correlator(plan, x, 1e-300).ell0_term
            zero_t = -gs.Zq ** 2 / (2.0 * np.pi ** 2 * x ** 2)
            assert abs(got - zero_t) <= 1e-15 * abs(zero_t)

    def test_overflow_raises(self, plan):
        with np.errstate(all="ignore"):
            with pytest.raises(NumericsError, match="non-finite"):
                density_correlator(plan, [10.0, 1e-300], 0.01)

    def test_ell0_finite_differences(self, gs, plan):
        # the verify point of assembly's ell0_fd_rel, moved by rounding-size
        # steps: a step that leaves the twist difference to rounding reads
        # 1.5e-7 to 6.5e-7 here, the sixth-order one 5.6e-10 to 7.7e-10
        T = 0.05
        for k in range(4):
            x = 1.5 * gs.v0 / (np.pi * T) * (1.0 + k * 1e-6)
            ref = gs.D ** 2 + ell0_closed(gs, x, T)
            assert abs(ell0_term_fd(plan, x, T) - ref) <= 1e-8 * abs(ref)

    def test_real_total(self, series):
        assert abs(series.total.imag) < 1e-9 * abs(series.total.real)

    def test_conjugate_pairs(self, gs, series):
        by_ell = {t.ell: t for t in series.harmonics}
        for ell in (1, 2):
            assert by_ell[-ell].oscillation == -2.0 * ell * gs.kF
            assert abs(by_ell[-ell].amplitude
                       - np.conj(by_ell[ell].amplitude)) < 1e-14
            assert abs(by_ell[-ell].value
                       - np.conj(by_ell[ell].value)) < 1e-20

    def test_parts_sum_to_total(self, series):
        total = (series.constant + series.ell0_term
                 + sum(t.value for t in series.harmonics))
        assert abs(total - series.total) < 1e-14

    def test_truncation_converged(self, gs, series):
        # the dropped ell = 3 harmonic is far below the kept terms
        by_ell = {t.ell: t for t in series.harmonics}
        assert abs(by_ell[2].value) < 1e-3 * abs(by_ell[1].value)

    def test_x_array_equals_per_x_calls(self, gs, plan):
        T = 0.05
        xs = np.array([1.5, 2.5, 4.0]) * gs.v0 / (np.pi * T)
        over_array = density_correlator(plan, xs, T)
        assert len(over_array) == len(xs)
        for xx, got in zip(xs, over_array):
            assert got == density_correlator(plan, xx, T)

    def test_x_array_rejects_nonpositive(self, plan):
        with pytest.raises(ValueError):
            density_correlator(plan, np.array([10.0, -1.0]), 0.05)

    def test_approaches_constant_far_out(self, gs, plan):
        T = 0.05
        far = density_correlator(plan, 4.0 * gs.v0 / (np.pi * T), T,
                                 ell_max=1)
        assert abs(far.total - gs.D ** 2) < 1e-3 * gs.D ** 2
