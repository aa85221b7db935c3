"""Amplitude machinery for the asymptotic series.

Functionals C0 and C1 of the dressed charge, the smooth amplitude via
contour Fredholm determinants, the discrete amplitude built from
Gamma/Barnes factors over quantum numbers, the configuration sum W, the
assembled term amplitude on a plan that holds its twist-independent parts
(with the closed-form harmonic coefficients), and the finite-temperature
discrete factor.  The closed form of W and the edge estimates of the
finite-temperature factor are checks, in ``verification``.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .excitation import USolution, contour_lift
from .groundstate import GroundState, kernel, kernel_block
from .numerics import (ConjugatePairing, Contour, NumericsError,
                       SampledFunction, cauchy_sum, cauchy_transform,
                       fredholm_logdet, upper_half)
from .specfun import barnes_g_one, gamma_ratio, ln_gamma

CONTOUR_NODES = 256  # trapezoid nodes on the determinant contour


# ---------------------------------------------------------------------------
# functionals of functions on the Fermi interval
# ---------------------------------------------------------------------------

def c1_functional(F: SampledFunction) -> complex:
    """Quadratic edge functional of a smooth function on [-q, q].

    Antisymmetrized double integral of (F'(l)F(m) - F(l)F'(m))/(l - m)
    (regular on the diagonal, where the integrand tends to F''F - F'^2)
    plus the edge term 2 F(q) * int (F - F(q))/(l - q) dl.
    """
    grid = F.grid
    lam, w = grid.nodes, grid.weights
    vals = np.asarray(F.values, dtype=complex)
    der = grid.derivative(vals)
    dl = lam[:, None] - lam[None, :]
    num = der[:, None] * vals[None, :] - vals[:, None] * der[None, :]
    np.fill_diagonal(dl, 1.0)
    integrand = num / dl
    der2 = grid.derivative(der)
    np.fill_diagonal(integrand, vals * der2 - der * der)
    double = 0.5 * w @ integrand @ w

    fq = complex(F(grid.b))
    edge = 2.0 * fq * np.sum(w * (vals - fq) / (lam - grid.b))
    return complex(double + edge)


def c0_functional(Z: SampledFunction, c: float) -> complex:
    """Offset double integral int Z(l)Z(m)/(l - m - ic)^2 at unit twist."""
    lam, w = Z.grid.nodes, Z.grid.weights
    ker = 1.0 / (lam[:, None] - lam[None, :] - 1j * c) ** 2
    return complex((w * Z.values) @ ker @ (w * Z.values))


# ---------------------------------------------------------------------------
# smooth amplitude (contour Fredholm determinants)
# ---------------------------------------------------------------------------

def smooth_contour(gs: GroundState, n: int) -> Contour:
    """Anticlockwise ellipse surrounding [-q, q].

    The vertical semi-axis stays below c/2 so the +-ic-shifted kernel poles
    and Cauchy-transform arguments keep a uniform distance from the contour
    and from the Fermi interval.
    """
    c = gs.params.c
    return Contour.ellipse(1.4 * gs.q, min(0.35 * c, 2.0 * gs.q), n)


# ---------------------------------------------------------------------------
# discrete amplitude (Gamma / Barnes factors over quantum numbers)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _pairs(n: int):
    """Index pairs (j, k), j < k, of n points, in row-major order, built
    once per n."""
    pairs = np.triu_indices(n, 1)
    for index in pairs:
        index.setflags(write=False)
    return pairs


def cauchy_det_sq(xs, ys) -> complex:
    """Squared Cauchy determinant det[1/(x_j - y_k)]^2 in product form,
    prod_{j<k} (x_j - x_k)^2 (y_j - y_k)^2 / prod_{j,k} (x_j - y_k)^2."""
    xs, ys = np.asarray(xs), np.asarray(ys)
    (xj, xk), (yj, yk) = _pairs(xs.size), _pairs(ys.size)
    vander = np.prod(xs[xj] - xs[xk]) * np.prod(ys[yj] - ys[yk])
    cross = np.prod(xs[:, None] - ys[None, :])
    return complex((vander / cross) ** 2)


def r_factor(ps, hs, nu: complex) -> complex:
    """Rational-Gamma weight of one particle/hole configuration.

    Squared Vandermonde factors over the quantum numbers divided by the
    squared cross pairings, times the squared Gamma ratio shifting the
    particles by +nu and the holes by -nu.
    """
    ps, hs = tuple(ps), tuple(hs)
    rat = cauchy_det_sq(np.array(ps, dtype=float),
                        1.0 - np.array(hs, dtype=float))
    gammas = gamma_ratio([p + nu for p in ps] + [h - nu for h in hs],
                         ps + hs)
    return complex(rat * gammas ** 2)


def discrete_amplitude(gs: GroundState, cls, alpha: complex) -> complex:
    """Zero-temperature discrete amplitude of one excitation class."""
    al = alpha + cls.ell
    nu = al * gs.Zq - cls.ell
    c1 = c1_functional(SampledFunction(gs.grid, al * gs.Z.values))
    sine = (np.sin(np.pi * al * gs.Zq) / np.pi) ** (2 * cls.n)
    return complex(np.exp(c1) * sine * barnes_g_one(nu) ** 2
                   * r_factor(cls.p_plus, cls.h_plus, nu)
                   * r_factor(cls.p_minus, cls.h_minus, -nu))


# ---------------------------------------------------------------------------
# configuration sums
# ---------------------------------------------------------------------------

def w_series(nu: complex, r: int, tau: float, cutoff: int) -> complex:
    """Configuration sum over particle/hole quantum numbers <= cutoff.

    Sums all configurations with n - n' = r, weighted by e^{-tau(p_j - 1)},
    e^{-tau h_k}, the sine prefactor per hole and the rational-Gamma weight.
    That weight is the squared minor of the Cauchy matrix
    C_pk = 1/(p + k - 1) bordered by r monomial columns p^j, so by
    Cauchy-Binet the finite sum is exactly one determinant,
    det(Lambda + diag(s b, 1_r) X^T diag(a) X) with X = [C | p^j] and
    Lambda = diag(1, 0_r); for r < 0 particles and holes swap roles.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    k = np.arange(1, cutoff + 1)
    # per-quantum-number squared Gamma ratios; a surviving pole raises
    ln_gamma_k = ln_gamma(k)
    a = np.exp(-tau * (k - 1)) * np.exp(2.0 * (ln_gamma(k + nu) - ln_gamma_k))
    b = np.exp(-tau * k) * np.exp(2.0 * (ln_gamma(k - nu) - ln_gamma_k))
    sine = (np.sin(np.pi * nu) / np.pi) ** 2
    if r < 0:
        # C is symmetric: the larger set becomes the bordered one, and the
        # |r| holes it now carries take their sine factors outside
        a, b = b, a
    m = abs(r)
    x = np.hstack([1.0 / (k[:, None] + k[None, :] - 1.0),
                   np.vander(k.astype(float), m, increasing=True)])
    d = np.concatenate([sine * b, np.ones(m)])
    mat = d[:, None] * (x.T @ (a[:, None] * x))
    mat[np.arange(cutoff), np.arange(cutoff)] += 1.0      # + Lambda
    return complex(np.linalg.det(mat) * sine ** max(-r, 0))


# ---------------------------------------------------------------------------
# assembled term amplitude
# ---------------------------------------------------------------------------

class AmplitudeResult(NamedTuple):
    """Term amplitude of one umklapp sector and its smooth part."""

    B_smooth: complex
    A_tilde: complex


def _require_finite(value: complex, what: str) -> complex:
    if not np.isfinite(value):
        raise NumericsError(f"non-finite {what}")
    return value


class AmplitudePlan:
    """The part of the term amplitudes that depends on neither the twist
    alpha nor the distance x, for one ground state and contour size.

    Holds the determinant contour and the conjugate pairing of its nodes;
    the Cauchy transforms L[Z] at its nodes w, at w +- ic and at the
    reference point -q + ic of the bracket; the interval
    log-determinant; and the offset and edge functionals of the dressed
    charge at unit twist (both are homogeneous of degree 2, so C0 and C1 of
    alpha_ell Z are alpha_ell^2 times these). On first use it builds, in
    the real form of the pairing, the zero-twist kernel of ``harmonic`` and
    the phase part that makes it the kernel of any real twist. The contour
    size must be even, so that its nodes are closed under w -> -w: that
    closure makes the smooth factor's two determinants equal, and so one of
    them is squared.
    """

    def __init__(self, gs: GroundState, contour_n: int = CONTOUR_NODES):
        if contour_n % 2:
            raise ValueError(f"contour size must be even, not {contour_n}")
        c = gs.params.c
        self.gs = gs
        self.contour = smooth_contour(gs, contour_n)
        w = self.contour.nodes
        n = w.size
        lz = cauchy_transform(gs.Z, np.concatenate([w, w + 1j * c]))
        self.lz, self.lz_up = lz[:n], lz[n:]
        # Z is real and conj(w_k) = w_{-k}, so L[Z](w_k - ic) is the
        # conjugate of L[Z](w_{-k} + ic)
        self.lz_dn = np.conj(self.lz_up[-np.arange(n) % n])
        self.lz_ref = cauchy_transform(gs.Z, -gs.q + 1j * c)
        lam = gs.grid.nodes
        self.ld_k = fredholm_logdet(kernel(lam[:, None] - lam[None, :], c),
                                    gs.grid, -1.0 / (2.0 * np.pi))
        self.c0 = c0_functional(gs.Z, c)
        self.c1 = c1_functional(SampledFunction(gs.grid, gs.Z.values))
        # the ellipse's real nodes w_0 and w_{n/2}, and its pairs w_{-k} =
        # conj(w_k); residue nodes would add real zeros and conjugate pairs
        k = np.arange(1, n // 2)
        self.pairing = ConjugatePairing(np.array([0, n // 2]),
                                        np.stack([k, n - k], axis=1))

    @cached_property
    def k_zero(self) -> np.ndarray:
        """The phase-1 kernel of ``_smooth_ratio`` with the weights and
        1/2 pi i, kappa(w_i - w_j) - kappa(-q - w_j) with
        kappa(d) = 1/(d + ic) - 1/(d - ic) = -i K(d), on the rows and
        combined columns of ``pairing``."""
        w, dz = self.contour.nodes, self.contour.weights
        c = self.gs.params.c
        mat = kernel_block(w[self.pairing.rows], w, c)
        mat *= dz
        mat -= kernel(-self.gs.q - w, c) * dz
        mat *= -1.0 / (2.0 * np.pi)
        return self.pairing.columns(mat)

    @cached_property
    def k_dn(self) -> np.ndarray:
        """The phase part of the twisted kernel of ``_smooth_ratio``:
        k_alpha(d) = kappa(d) - (phase - 1)/(d - ic), so its kernel is
        k_zero - (phase - 1) k_dn, with k_dn the kernel
        1/(w_i - w_j - ic) - 1/(-q - w_j - ic) with the weights and
        1/2 pi i, on the rows and combined columns of ``pairing``."""
        w, dz = self.contour.nodes, self.contour.weights
        c = self.gs.params.c
        mat = np.subtract.outer(w[self.pairing.rows], w)
        mat -= 1j * c
        np.divide(1.0, mat, out=mat)
        mat -= 1.0 / (-self.gs.q - w - 1j * c)
        mat *= dz / (2.0j * np.pi)
        return self.pairing.columns(mat)

    def _smooth_ratio(self, alpha: float, al: float) -> float:
        """The smooth amplitude over sin^2(pi alpha), at real twist alpha
        and shifted twist al.

        The smooth amplitude is (phase - 1)^2 e^{-al^2 C0} det1 det2
        / (det_K^2 bracket1 bracket2) with phase = e^{2 pi i alpha}. det1 is
        the contour determinant of k_alpha(w_i - w_j) - k_alpha(-q - w_j),
        k_alpha(d) = 1/(d + ic) - phase/(d - ic), row-scaled by
        -e^{-al L[Z](w)}/denom(w), denom(w) = e^{-al L[Z](w + ic)} - phase
        e^{-al L[Z](w - ic)}, and det2 its column-scaled twin at q (any
        pair (-theta, theta) gives the same value). L[Z] is odd and
        w -> -w permutes the nodes, so det2 = det1 and one determinant is
        squared. Z is real, k_alpha(conj d) = -phase conj k_alpha(d) and
        the row factor obeys r(conj w) = -conj r(w)/phase, so the phase
        cancels and the matrix is
        conjugation-symmetric on ``pairing``: det1 is the determinant of a
        real matrix, built from ``k_zero`` and ``k_dn`` (off zero twist
        only), and its square drops its sign. With u = e^{-al L[Z](-q + ic)}
        the bracket is e^{i pi alpha} 2i Im(e^{-i pi alpha} u), and phase - 1
        is e^{i pi alpha} 2i sin(pi alpha), so the smooth amplitude is
        sin^2(pi alpha) times the real value returned here.
        """
        phase = np.exp(2.0j * np.pi * alpha)
        rows = self.pairing.rows
        denom = (np.exp(-al * self.lz_up[rows])
                 - phase * np.exp(-al * self.lz_dn[rows]))
        row = (-np.exp(-al * self.lz[rows]) / denom)[:, None]
        if alpha:
            kern = np.multiply(1.0 - phase, self.k_dn)
            kern += self.k_zero
            kern *= row
        else:
            kern = row * self.k_zero
        ld = self.pairing.logabsdet(kern)
        im = np.exp(-al * self.lz_ref - 1j * np.pi * alpha).imag
        return float(np.exp(-al ** 2 * self.c0.real
                            + 2.0 * (ld - self.ld_k.real)) / im ** 2)

    def _discrete_factor(self, al) -> complex:
        """Barnes, edge-functional and normalisation factors of the term
        amplitude at shifted twist al; G^2(1, x) carries the squared
        symmetric Barnes pair."""
        gs = self.gs
        norm = np.exp(-gs.exponent(al) * np.log(2.0 * gs.q * gs.Zq))
        return complex(barnes_g_one(al * gs.Zq) ** 2 * np.exp(al ** 2 * self.c1)
                       * norm)

    def amplitude(self, alpha: float, ell: int) -> AmplitudeResult:
        """Constant coefficient of one oscillating harmonic of the series.

        B_smooth is sin^2(pi alpha) times ``_smooth_ratio``, and A_tilde is
        B_smooth times the discrete factor; both are real, and come back
        with imaginary part 0. They are exactly 1 at alpha + ell = 0 and
        exactly 0 at any other integer alpha, near which they vanish
        quadratically; inf/NaN raises. A complex alpha raises
        ``ValueError``; a real value of complex dtype is taken as real.
        """
        if np.imag(alpha):
            raise ValueError("the twist must be real")
        alpha = float(np.real(alpha))
        al = alpha + ell
        if al == 0:
            return AmplitudeResult(B_smooth=1.0 + 0.0j, A_tilde=1.0 + 0.0j)
        if alpha.is_integer():
            return AmplitudeResult(B_smooth=0.0 + 0.0j, A_tilde=0.0 + 0.0j)
        b_s = np.sin(np.pi * alpha) ** 2 * self._smooth_ratio(alpha, al)
        a_tilde = _require_finite(b_s * self._discrete_factor(al).real,
                                  f"term amplitude at ell = {ell}")
        return AmplitudeResult(B_smooth=complex(b_s), A_tilde=complex(a_tilde))

    def harmonic(self, ell: int) -> complex:
        """Coefficient of the e^{2 i x ell kF} harmonic of the correlator.

        The term amplitude is sin^2(pi alpha) R(alpha) times the discrete
        factor, with R = ``_smooth_ratio`` regular at zero twist, so the
        coefficient D^2 ell^2 A''(0)/2 is pi^2 D^2 ell^2 R(0) times the
        discrete factor at alpha = 0: one real determinant, and a real
        coefficient, returned with imaginary part 0.
        """
        if ell == 0:
            raise ValueError("the ell = 0 term has a closed form")
        value = (np.pi ** 2 * (self.gs.D * ell) ** 2
                 * self._smooth_ratio(0.0, ell)
                 * self._discrete_factor(ell).real)
        return complex(_require_finite(value,
                                       f"harmonic amplitude at ell = {ell}"))


def smooth_amplitude(gs: GroundState, alpha: float, ell: int,
                     contour_n: int = CONTOUR_NODES) -> complex:
    """Smooth part of one term amplitude (see ``AmplitudePlan.amplitude``)."""
    return AmplitudePlan(gs, contour_n).amplitude(alpha, ell).B_smooth


def amplitude_tilde(gs: GroundState, alpha: float, ell: int,
                    contour_n: int = CONTOUR_NODES) -> AmplitudeResult:
    """Constant coefficient of one oscillating harmonic of the series (see
    ``AmplitudePlan.amplitude``)."""
    return AmplitudePlan(gs, contour_n).amplitude(alpha, ell)


# ---------------------------------------------------------------------------
# finite-temperature discrete factor
# ---------------------------------------------------------------------------

def double_integral(sol: USolution) -> complex:
    """The double integral of z(l) z(m) / (l - m_+)^2 along the contour.

    The inner transform is evaluated in the exact zero-offset limit:
    two-term Taylor subtraction at each node regularizes the quadrature,
    the subtracted terms integrate in closed form between the contour's
    ends, the lifted grid ends gamma(a) and gamma(b), and the left-shifted
    pole contributes the +i pi half-residue to the logarithmic term.
    Off the diagonal, whose term is z''_j / 2, the sum over i of (z_i - z_j
    - z'_j dl) / dl^2 is sum z_i P^2 - z_j sum P^2 - z'_j sum P, P = 1/dl.
    The contour is odd, so P is formed on its upper-half rows only, and
    the lower rows are that block applied to z(-l), z' -> -z'(-l).
    """
    g, w, z = sol.contour.nodes, sol.contour.weights, sol.z
    base = sol.thermal.grid
    gamma_prime = w / base.weights
    zp = base.derivative(z) / gamma_prime
    zpp = base.derivative(zp) / gamma_prime

    x, wx = upper_half(g, w)
    half = g.size // 2
    diag = (np.arange(x.size), np.arange(half, g.size))
    p = np.subtract.outer(x, g)
    p[diag] = 1.0
    np.divide(1.0, p, out=p)
    p[diag] = 0.0
    s_p = wx @ p
    p *= p
    # a constant drops out of z_i - z_j; taking z from its value beside 0,
    # flat across the Fermi sea, keeps the large near-diagonal sums small there
    zc = z - z[half]
    s_z, s_zr, s_p2 = np.stack([wx * zc[half:], wx * zc[::-1][half:], wx]) @ p
    reg = (s_z + s_zr[::-1] - zc * (s_p2 + s_p2[::-1])
           - zp * (s_p - s_p[::-1]) + 0.5 * w * zpp)

    a, b = contour_lift(sol.thermal, sol.roots.u1_at_q,
                        np.array([base.a, base.b]))[0]
    i2 = 1.0 / (a - g) - 1.0 / (b - g)
    i1 = np.log(b - g) - np.log(g - a) + 1j * np.pi
    j_vec = reg + z * i2 + zp * i1
    return complex(np.sum(w * z * j_vec))


def bd_finite_T(sol: USolution) -> complex:
    """Finite-temperature discrete factor along the deformed contour.

    The exponential of the double integral, the squared Cauchy determinant
    of the particle roots against the hole roots, and per-root
    Cauchy-transform and derivative factors of the phase exponential;
    the roots sit several node spacings off the contour, so its Cauchy
    transform at them is the plain ``cauchy_sum``.
    """
    T = sol.params.T
    halves, s = sol.roots.halves, sol.points
    out = np.exp(double_integral(sol)) * cauchy_det_sq(s[halves > 0],
                                                       s[halves < 0])
    # exact derivative of e^{-2 pi i z} at the roots, no leading-order
    # substitution: -(u'(s)/T) e^{-u/T} / (1 + e^{-eps/T})
    deriv = (-sol.u_prime_at(s) * np.exp(-sol.u_at(s) / T)
             / (T * (1.0 + np.exp(-sol.thermal.eps_at(s) / T))))
    cz = cauchy_sum(sol.contour.nodes, sol.contour.weights * sol.z, s)
    return complex(out * np.prod(np.exp(-2.0 * halves * cz) / deriv))
