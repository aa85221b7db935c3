"""Complex special functions for the amplitude formulas.

Log-Gamma, products/ratios of Gamma functions in hypergeometric-style
notation, the Barnes G-function, and the symmetric product G(1+x)G(1-x).
All ratios are assembled in log space so that long Gamma products never
overflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.integrate import quad
from scipy.special import loggamma

# zeta'(-1); fixes the additive constant of the Barnes asymptotic series
_ZETA_PRIME_MINUS_ONE = -0.16542114370045092921
# Bernoulli numbers B4, B6, ... for the tail sum_{k>=2} B_2k/(2k(2k-2) z^{2k-2})
_BERNOULLI = (-1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0, -691.0 / 2730.0)


class GammaPoleError(ValueError):
    """Evaluation requested at a pole of the Gamma function."""


def _is_nonpositive_int(z: complex) -> bool:
    z = complex(z)
    return z.imag == 0.0 and z.real <= 0.5 and z.real == round(z.real)


def ln_gamma(z: complex) -> complex:
    """Principal-branch log-Gamma, analytic on the cut plane."""
    if _is_nonpositive_int(z):
        raise GammaPoleError(f"log-Gamma pole at z={z}")
    return complex(loggamma(complex(z)))


@dataclass(frozen=True)
class GammaRatioSpec:
    """Gamma(a_1)...Gamma(a_p) / (Gamma(b_1)...Gamma(b_q)) argument lists."""

    numerators: Sequence[complex]
    denominators: Sequence[complex] = field(default_factory=tuple)


def gamma_ratio(spec: GammaRatioSpec) -> complex:
    """Evaluate a Gamma ratio, with pole/zero counting at integer arguments.

    A Gamma pole in a denominator contributes an exact zero; a surviving
    pole in a numerator raises GammaPoleError.
    """
    num_poles = [z for z in spec.numerators if _is_nonpositive_int(z)]
    den_poles = [z for z in spec.denominators if _is_nonpositive_int(z)]
    if len(num_poles) > len(den_poles):
        raise GammaPoleError(
            f"Gamma pole(s) at numerator argument(s) {num_poles} not cancelled")
    if len(den_poles) > len(num_poles):
        return 0.0 + 0.0j
    # equal pole counts: pair them off via the reflection residue
    # Gamma(z) ~ (-1)^n / (n! (z+n)) near z=-n, so a pole in the numerator
    # against a pole in the denominator leaves a finite ratio of residues
    log_sum = 0.0 + 0.0j
    sign = 1.0
    for z in spec.numerators:
        if _is_nonpositive_int(z):
            n = int(round(-z.real))
            sign *= (-1.0) ** n
            log_sum -= loggamma(n + 1)
        else:
            log_sum += loggamma(complex(z))
    for z in spec.denominators:
        if _is_nonpositive_int(z):
            n = int(round(-z.real))
            sign *= (-1.0) ** n
            log_sum += loggamma(n + 1)
        else:
            log_sum -= loggamma(complex(z))
    return sign * complex(np.exp(log_sum))


def _ln_barnes_asymptotic(z: complex) -> complex:
    """log G(1+z) for large |z|, Re z > 0 (principal branch)."""
    lz = np.log(z)
    out = (0.5 * z * z * (lz - 1.5) + 0.5 * z * np.log(2.0 * np.pi)
           - lz / 12.0 + _ZETA_PRIME_MINUS_ONE)
    zk = z * z
    for k, b in enumerate(_BERNOULLI, start=2):
        out += b / (2 * k * (2 * k - 2) * zk)
        zk *= z * z
    return out


def barnes_g(z: complex) -> complex:
    """Barnes G-function, entire, with G(1)=G(2)=G(3)=1."""
    if _is_nonpositive_int(z):
        return 0.0 + 0.0j  # zeros of G at 0, -1, -2, ...
    return complex(np.exp(ln_barnes_g(z)))


def ln_barnes_g(z: complex) -> complex:
    """log G(z); branch from summed principal logs.

    Upward recursion G(z+1) = Gamma(z) G(z) pushes the argument to
    Re z >= 24, where the asymptotic expansion of log G applies:
    G(z) = G(z+n) / prod_{j=0}^{n-1} Gamma(z+j).
    """
    z = complex(z)
    if _is_nonpositive_int(z):
        raise GammaPoleError(f"log of a Barnes zero at z={z}")
    n = max(0, int(np.ceil(24.0 - z.real)))
    return complex(_ln_barnes_asymptotic(z + n - 1.0)
                   - sum(loggamma(z + j) for j in range(n)))


def barnes_g_one(x: complex) -> complex:
    """The symmetric product G(1+x) G(1-x); even in x by construction."""
    return barnes_g(1.0 + complex(x)) * barnes_g(1.0 - complex(x))


def verify_gamma_integral_identity(a: float, b: float, p: float) -> float:
    """Residual of the Laplace-type integral identity

    int_0^inf e^{-p w}/w [b - a - pi/sinh(pi w) (e^{-a w} - e^{-b w})] dw
        = (a-b) log(p/2pi) + 2pi log Gamma((p+b)/2pi + 1/2)
                           - 2pi log Gamma((p+a)/2pi + 1/2),

    evaluated by adaptive quadrature on the left and log-Gamma on the right.
    Returns |LHS - RHS| / (1 + |RHS|).
    """
    if p <= 0.0:
        raise ValueError("p must be positive")
    if max(abs(a), abs(b)) >= p + np.pi:
        raise ValueError("integrand does not decay for these (a, b, p)")
    if a == b:
        return 0.0

    def integrand(w):
        if w < 1e-6:
            # series of the bracket: (b^2 - a^2)/2 * w + O(w^2), over w
            return np.exp(-p * w) * 0.5 * (b * b - a * a)
        # pi/sinh(pi w) * e^{-aw} = 2 pi e^{-(pi+a)w} / (1 - e^{-2 pi w});
        # everything decays since |a|, |b| < pi + p
        damp = 1.0 - np.exp(-2.0 * np.pi * w)
        br = (b - a) - 2.0 * np.pi * (np.exp(-(np.pi + a) * w)
                                      - np.exp(-(np.pi + b) * w)) / damp
        return np.exp(-p * w) * br / w

    lhs, err = quad(integrand, 0.0, np.inf, limit=200, epsabs=1e-12, epsrel=1e-12)
    if err > 1e-7 * (1.0 + abs(lhs)):
        raise ArithmeticError(f"quadrature failed to converge (err={err:.2e})")
    two_pi = 2.0 * np.pi
    rhs = ((a - b) * np.log(p / two_pi)
           + two_pi * (loggamma((p + b) / two_pi + 0.5).real
                       - loggamma((p + a) / two_pi + 0.5).real))
    return abs(lhs - rhs) / (1.0 + abs(rhs))
