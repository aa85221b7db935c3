"""Complex special functions for the amplitude formulas.

Vectorised log-Gamma on numpy alone, products/ratios of Gamma functions in
hypergeometric-style notation, the Barnes G-function, and the symmetric
product G(1+x)G(1-x).  All ratios are assembled in log space so that long
Gamma products never overflow.  A leaf module: it imports no other module
of the package.
"""

from __future__ import annotations

import numpy as np

# zeta'(-1); fixes the additive constant of the Barnes asymptotic series
_ZETA_PRIME_MINUS_ONE = -0.16542114370045092921
# Bernoulli numbers B2, B4, ..., B12 for the Stirling and Barnes tails
_BERNOULLI = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0,
              -691.0 / 2730.0)


class GammaPoleError(ValueError):
    """Evaluation requested at a pole of the Gamma function."""


def _poles(z):
    """Elementwise: is z a pole 0, -1, -2, ... of the Gamma function?"""
    z = np.asarray(z, dtype=complex)
    return (z.imag == 0.0) & (z.real <= 0.5) & (z.real == np.round(z.real))


def ln_gamma(z):
    """Principal-branch log-Gamma, analytic off (-inf, 0]; scalar or array.

    Shifts z up to Re w >= 16, where the Stirling series through B12 is
    exact to 1e-18, and subtracts sum_j log(z + j).  The sum of principal
    logs carries the principal branch (Hare, J. Algorithms 25 (1997) 221);
    on the negative real axis it takes the value from above, as for x + 0j.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(_poles(z)):
        raise GammaPoleError(f"log-Gamma pole in {z[_poles(z)]}")
    n = np.maximum(0.0, np.ceil(16.0 - z.real))
    w = z + n
    out = (w - 0.5) * np.log(w) - w + 0.5 * np.log(2.0 * np.pi)
    wk = w
    for k, b in enumerate(_BERNOULLI, start=1):
        out = out + b / (2 * k * (2 * k - 1) * wk)
        wk = wk * w * w
    shift = np.arange(int(n.max(initial=0.0)))
    logs = np.where(shift < n[..., None], np.log(z[..., None] + shift), 0.0)
    out = out - np.sum(logs, axis=-1)
    return complex(out) if out.ndim == 0 else out


def gamma_ratio(numerators, denominators=()) -> complex:
    """Gamma(a_1)...Gamma(a_p) / (Gamma(b_1)...Gamma(b_q)) over the
    argument lists a and b, with pole/zero counting at integer arguments.

    A Gamma pole in a denominator contributes an exact zero; a surviving
    pole in a numerator raises GammaPoleError.
    """
    num = np.asarray(numerators, dtype=complex)
    den = np.asarray(denominators, dtype=complex)
    num_poles, den_poles = _poles(num), _poles(den)
    if num_poles.sum() > den_poles.sum():
        raise GammaPoleError(
            f"uncancelled Gamma pole(s) at numerator(s) {num[num_poles]}")
    if den_poles.sum() > num_poles.sum():
        return 0.0 + 0.0j
    # equal pole counts pair off via the residue Gamma(z) ~ (-1)^n / (n!
    # (z+n)) near z=-n: a pole at -n leaves a sign (-1)^n and trades places
    # with Gamma(1 + n) = n!, so poles above and below give a finite ratio
    sign = (-1.0) ** (num[num_poles].real.sum() + den[den_poles].real.sum())
    top = np.concatenate([num[~num_poles], 1.0 - den[den_poles]])
    bottom = np.concatenate([den[~den_poles], 1.0 - num[num_poles]])
    return complex(sign * np.exp(np.sum(ln_gamma(top))
                                 - np.sum(ln_gamma(bottom))))


def _ln_barnes_asymptotic(z: complex) -> complex:
    """log G(1+z) for large |z|, Re z > 0 (principal branch)."""
    lz = np.log(z)
    out = (0.5 * z * z * (lz - 1.5) + 0.5 * z * np.log(2.0 * np.pi)
           - lz / 12.0 + _ZETA_PRIME_MINUS_ONE)
    zk = z * z
    for k, b in enumerate(_BERNOULLI[1:], start=2):
        out += b / (2 * k * (2 * k - 2) * zk)
        zk *= z * z
    return out


def barnes_g(z: complex) -> complex:
    """Barnes G-function, entire, with G(1)=G(2)=G(3)=1."""
    if _poles(z):
        return 0.0 + 0.0j  # zeros of G at 0, -1, -2, ...
    return complex(np.exp(ln_barnes_g(z)))


def ln_barnes_g(z: complex) -> complex:
    """log G(z); branch from summed principal logs.

    Upward recursion G(z+1) = Gamma(z) G(z) pushes the argument to
    Re z >= 24, where the asymptotic expansion of log G applies:
    G(z) = G(z+n) / prod_{j=0}^{n-1} Gamma(z+j).
    """
    z = complex(z)
    if _poles(z):
        raise GammaPoleError(f"log of a Barnes zero at z={z}")
    n = max(0, int(np.ceil(24.0 - z.real)))
    return complex(_ln_barnes_asymptotic(z + n - 1.0)
                   - np.sum(ln_gamma(z + np.arange(n))))


def barnes_g_one(x: complex) -> complex:
    """The symmetric product G(1+x) G(1-x); even in x by construction."""
    return barnes_g(1.0 + complex(x)) * barnes_g(1.0 - complex(x))
