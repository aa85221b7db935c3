"""Assembly of the long-distance asymptotic series.

The harmonic terms of the generating-function expansion, the closed-form
harmonic amplitudes of the correlator, and the final density-density
correlator with its constant, hyperbolic and oscillating parts.  Every
function here takes its amplitudes, and its ground state, from one
``AmplitudePlan``.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

from .amplitude import CONTOUR_NODES, AmplitudePlan, _require_finite
from .groundstate import GroundState


def envelope_power(gs: GroundState, x: float, T: float, exponent) -> complex:
    """(pi T / v0 / sinh(pi T x / v0))^exponent on the principal branch of
    the positive real base, from its logarithm log(2a / -expm1(-2a)) - a
    - log x, a = pi T x / v0, which stays finite where e^{-a} underflows
    (the ratio is its limit 1 where a underflows to 0); an overflow is
    left to the callers' checks."""
    a = np.pi * T * x / gs.v0
    ratio = 2.0 * a / -np.expm1(-2.0 * a) if a > 0 else 1.0
    log_base = np.log(ratio) - a - np.log(x)
    with np.errstate(over="ignore"):
        return complex(np.exp(exponent * log_base))


class AsymptoticTerm(NamedTuple):
    """One harmonic of the generating function or of the correlator at
    fixed x, T."""

    ell: int
    oscillation: complex          # momentum 2 alpha_ell kF of e^{i . x}
    exponent: complex             # GroundState.exponent(alpha_ell)
    amplitude: complex            # constant coefficient of the harmonic
    envelope: complex             # hyperbolic decay factor at this x
    value: complex                # full term


def generating_asymptotics(plan: AmplitudePlan, alpha: float, x: float,
                           T: float, ell_max: int):
    """Truncated harmonic sum of the generating function at one (x, T),
    over the harmonics |ell| <= ell_max at real twist alpha.

    Returns (total, terms) with the terms sorted by decreasing envelope
    magnitude; valid deep in the decaying regime x -> infinity, T -> 0,
    x T -> infinity.  A non-finite term, and so total, raises NumericsError.
    """
    gs = plan.gs
    if not (0 < x < np.inf and 0 < T < np.inf):
        raise ValueError("need finite x > 0 and T > 0")
    if ell_max < 0:
        raise ValueError(f"ell_max must be non-negative: {ell_max}")
    if np.pi * T * x / gs.v0 < 1.0:
        warnings.warn("x T below the asymptotic regime; terms of comparable "
                      "size are being dropped", stacklevel=2)
    terms = []
    for ell in sorted(range(-ell_max, ell_max + 1), key=lambda l: (abs(l), -l)):
        al = alpha + ell
        amp = plan.amplitude(alpha, ell).A_tilde
        exponent = gs.exponent(al)
        env = envelope_power(gs, x, T, exponent)
        osc = 2.0 * al * gs.kF
        value = np.exp(1j * osc * x) * env * amp
        terms.append(AsymptoticTerm(ell=ell, oscillation=osc,
                                    exponent=exponent, amplitude=amp,
                                    envelope=env, value=complex(value)))
    terms.sort(key=lambda t: -abs(t.envelope))
    total = complex(sum(t.value for t in terms))
    return _require_finite(total, "generating-function total"), terms


def harmonic_amplitude(gs: GroundState, ell: int,
                       contour_n: int = CONTOUR_NODES) -> complex:
    """Coefficient of the e^{2 i x ell kF} harmonic of the correlator, in
    closed form (see ``AmplitudePlan.harmonic``)."""
    return AmplitudePlan(gs, contour_n).harmonic(ell)


class CorrelatorSeries(NamedTuple):
    """Assembled long-distance density-density correlator at one (x, T)."""

    x: float
    T: float
    constant: float               # D^2
    ell0_term: float              # hyperbolic non-oscillating correction
    harmonics: tuple
    total: complex = 0.0


def ell0_closed(gs: GroundState, x: float, T: float) -> float:
    """Non-oscillating term -(T Zq/v0)^2 / 2 sinh^2(a), a = pi T x / v0, as
    -(Zq/pi)^2 ((a/sinh a) / x)^2 / 2, the square the envelope power 2,
    finite as T -> 0."""
    return -0.5 * (gs.Zq / np.pi) ** 2 * envelope_power(gs, x, T, 2).real


def density_correlator(plan: AmplitudePlan, x, T: float, ell_max: int = 2):
    """Long-distance density-density correlator at one x or over an array.

    The constant part is the squared density, the non-oscillating
    hyperbolic term is coded in closed form, and each oscillating harmonic
    carries its closed-form amplitude with its power of the hyperbolic
    envelope.  Negative harmonics are the conjugates of the positive ones,
    so the assembled series is real for real inputs.  The amplitudes are
    computed once, from ``plan``, and shared by every x.  Returns one
    CorrelatorSeries for a scalar x and a tuple of them for an array.  A
    non-finite term, and so total, raises NumericsError.
    """
    xs = np.asarray(x, dtype=float)
    if not (np.all((0 < xs) & (xs < np.inf)) and 0 < T < np.inf):
        raise ValueError("need finite x > 0 and T > 0")
    if ell_max < 0:
        raise ValueError(f"ell_max must be non-negative: {ell_max}")
    amps = {ell: plan.harmonic(ell) for ell in range(1, ell_max + 1)}
    series = tuple(_series_at(plan.gs, float(xx), T, amps)
                   for xx in xs.reshape(-1))
    return series[0] if xs.ndim == 0 else series


def _series_at(gs: GroundState, x: float, T: float,
               amps: dict) -> CorrelatorSeries:
    harmonics = []
    for ell, amp in amps.items():
        exponent = gs.exponent(ell)
        env = float(np.real(envelope_power(gs, x, T, exponent)))
        for sgn_ell, sgn_amp in ((ell, amp), (-ell, np.conj(amp))):
            value = sgn_amp * np.exp(2.0j * x * sgn_ell * gs.kF) * env
            harmonics.append(AsymptoticTerm(
                ell=sgn_ell, oscillation=2.0 * sgn_ell * gs.kF,
                exponent=exponent, amplitude=complex(sgn_amp), envelope=env,
                value=complex(value)))
    harmonics.sort(key=lambda t: (abs(t.ell), -t.ell))
    constant = gs.D ** 2
    ell0 = ell0_closed(gs, x, T)
    total = _require_finite(complex(constant + ell0 + sum(
        t.value for t in harmonics)), f"correlator total at x = {x:g}")
    return CorrelatorSeries(x=x, T=T, constant=constant, ell0_term=ell0,
                            harmonics=tuple(harmonics), total=total)


def ell0_term_fd(plan: AmplitudePlan, x: float, T: float) -> float:
    """Non-oscillating part of the correlator by the full finite-difference
    route: second twist derivative of the zero-harmonic term followed by a
    Richardson second x-derivative; reproduces D^2 plus the closed
    hyperbolic term up to higher-order thermal corrections.  Twist steps h,
    h/2, h/4 (h = 0.1/(1 + kF x)) and Richardson to O(h^6) damp rounding."""
    gs = plan.gs
    cache = {}

    def zero_harmonic(alpha, xx):
        if alpha not in cache:
            cache[alpha] = plan.amplitude(alpha, 0).A_tilde
        return (np.exp(2.0j * alpha * gs.kF * xx)
                * envelope_power(gs, xx, T, gs.exponent(alpha)) * cache[alpha])

    h = 0.1 / (1.0 + gs.kF * x)

    def twist_curvature(xx):
        def d2(step):
            return (zero_harmonic(step, xx) - 2.0
                    + zero_harmonic(-step, xx)) / step ** 2
        d_h, d_2, d_4 = (d2(f * h) for f in (1.0, 0.5, 0.25))
        return (16.0 * (4.0 * d_4 - d_2) - (4.0 * d_2 - d_h)) / 45.0

    def x_curvature(dx):
        return (twist_curvature(x + dx) - 2.0 * twist_curvature(x)
                + twist_curvature(x - dx)) / dx ** 2

    dx = 0.1 * gs.v0 / (np.pi * T)
    richardson = (4.0 * x_curvature(0.5 * dx) - x_curvature(dx)) / 3.0
    return float(np.real(-richardson / (8.0 * np.pi ** 2)))
