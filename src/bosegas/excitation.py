"""Excited-sector data and solvers.

Bookkeeping of umklapp/particle-hole classes, the table of the complex
roots of the excited-state energy u at leading order, the full nonlinear
solve for u on a deformed contour (the thermal solve's path on other nodes
and another driving term), the auxiliary phase function z, and the
correlation decay rate by the direct integral.  The closed low-temperature
forms of u and of the decay rate are checks, in ``verification``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .groundstate import GroundState, ModelParams, kernel, kernel_prime
from .numerics import Contour, MirrorFold, unfold_even, upper_half
from .thermal import (ThermalSolution, continuation, mirror_fold, solve_on,
                      stable_log1pexp)


class ConstraintError(ValueError):
    """An excited class that the leading-order placement cannot realise."""


def _validate_qn(seq, name):
    ints = tuple(int(v) for v in seq)
    if ints != tuple(seq):   # int() truncates 1.5 to 1
        raise ValueError(f"{name} quantum numbers must be integers")
    if any(v < 1 for v in ints):
        raise ValueError(f"{name} quantum numbers must be >= 1")
    if any(b <= a for a, b in zip(ints, ints[1:])):
        raise ValueError(f"{name} quantum numbers must be strictly increasing")
    return ints


class _QuantumNumbers(NamedTuple):
    ell: int
    p_plus: tuple
    h_plus: tuple
    p_minus: tuple
    h_minus: tuple


class ExcitationClass(_QuantumNumbers):
    """Integer data of one excited sector: umklapp number ell and the
    particle/hole quantum numbers attached to the right (+q) and left (-q)
    Fermi points; checked and made int tuples on construction, equal and
    hashed by value."""

    __slots__ = ()

    def __new__(cls, ell: int, p_plus=(), h_plus=(), p_minus=(), h_minus=()):
        p_plus = _validate_qn(p_plus, "p+")
        h_plus = _validate_qn(h_plus, "h+")
        p_minus = _validate_qn(p_minus, "p-")
        h_minus = _validate_qn(h_minus, "h-")
        if len(p_plus) + len(p_minus) != len(h_plus) + len(h_minus):
            raise ValueError("particle and hole counts must agree")
        if len(p_plus) - len(h_plus) != ell or \
                len(h_minus) - len(p_minus) != ell:
            raise ValueError("quantum-number counts incompatible with ell")
        return super().__new__(cls, ell, p_plus, h_plus, p_minus, h_minus)

    # ``_replace`` builds its copy through ``_make``: check it as well
    _make = classmethod(lambda cls, values: cls(*values))

    @property
    def n(self) -> int:
        return len(self.p_plus) + len(self.p_minus)


def u1_value(gs: GroundState, alpha: complex, ell: int) -> complex:
    """u1 at the Fermi boundary: 2 pi i (ell - alpha_ell * Zq)."""
    return 2.0j * np.pi * (ell - (alpha + ell) * gs.Zq)


class Root(NamedTuple):
    """One complex root of the excited sector at leading order."""

    side: int        # +1 attached to +q, -1 to -q
    half: int        # +1 particle root eta (upper), -1 hole root xi (lower)
    k: int           # quantum number
    offset: complex  # (2 pi (k - 1/2) + i side half u1) / eps0'


class RootTable:
    """The complex roots of one excited class, one entry per quantum
    number, with the edge value u1 that fixes their offsets."""

    __slots__ = ("roots", "u1_at_q")

    def __init__(self, roots: tuple, u1_at_q: complex):
        self.roots = roots
        self.u1_at_q = u1_at_q

    def __iter__(self):
        return iter(self.roots)

    @property
    def halves(self) -> np.ndarray:
        """The half-plane of each root, +1 or -1, as floats."""
        return np.array([r.half for r in self.roots], dtype=float)

    def points(self, q: float, T: float) -> np.ndarray:
        """Leading-order positions side*q + i T half offset."""
        return np.array([r.side * q + 1j * T * r.half * r.offset
                         for r in self.roots], dtype=complex)


def root_offsets(gs: GroundState, cls: ExcitationClass,
                 alpha: complex) -> RootTable:
    """Leading-order root table from the quantum numbers; every offset must
    lie in the half-plane Re > 0."""
    u1 = u1_value(gs, alpha, cls.ell)
    roots = []
    for side, half, ks in ((1, 1, cls.p_plus), (-1, 1, cls.p_minus),
                           (1, -1, cls.h_plus), (-1, -1, cls.h_minus)):
        for k in ks:
            offset = ((2.0 * np.pi * (k - 0.5) + 1j * (side * half) * u1)
                      / gs.eps0_prime_q)
            if not offset.real > 0:
                raise ConstraintError(
                    f"root offset {offset} not in the required half-plane")
            roots.append(Root(side, half, k, offset))
    return RootTable(tuple(roots), u1)


def contour_lift(thermal: ThermalSolution, u1_at_q: complex, x):
    """The excited-sector contour over the real points x: gamma(x) =
    x + i height bump(x), an odd pair of smooth bumps at +-q, and
    dgamma/dx.

    The bump height is chosen halfway through the channel between the
    nearest migrated root of 1+e^{-u/T} (at height (|Im u1|-pi)T/eps0')
    and the first pole of the Fermi weight (at height pi*T/eps0'), so that
    on the contour the phases of both logs entering z stay within
    (-pi, pi) across the crossover windows.  For -pi < Im u1 < pi the
    deformation is harmless (and vanishes with u1); it exists as long as
    |Im u1| < 2 pi, which is enforced here.
    """
    gs, T = thermal.gs, thermal.params.T
    epsp = gs.eps0_prime_q
    if not abs(u1_at_q.imag) < 2.0 * np.pi * (1.0 - 1e-9):
        raise ConstraintError(
            f"|Im u1| = {abs(u1_at_q.imag):.4f} >= 2 pi: no contour channel "
            f"separates the migrated roots from the Fermi-weight poles")
    height = -u1_at_q.imag * T / (2.0 * epsp)
    # the plateau must cover the crossover window |Re u| <~ 40 T
    width = min(80.0 * T / epsp, 0.5 * min(gs.q, thermal.params.c))
    sp, sm = (x - gs.q) / width, (x + gs.q) / width
    bump = np.exp(-sp * sp) - np.exp(-sm * sm)
    dbump = (-2.0 * sp * np.exp(-sp * sp) + 2.0 * sm * np.exp(-sm * sm)) / width
    return x + 1j * height * bump, 1.0 + 1j * height * dbump


def excitation_contour(thermal: ThermalSolution, u1_at_q: complex) -> Contour:
    """Integration contour for the excited sector: the real thermal grid
    lifted by ``contour_lift``, with the grid weights times dgamma/dx."""
    nodes, dgamma = contour_lift(thermal, u1_at_q, thermal.grid.nodes)
    return Contour(nodes, thermal.grid.weights * dgamma)


def theta_odd(lam, c: float):
    """Scattering phase i log((ic+lambda)/(ic-lambda)), continuous and odd on
    the real axis, tending to +-pi at +-infinity."""
    lam = np.asarray(lam, dtype=complex)
    return 1j * (np.log(1j * c + lam) - np.log(1j * c - lam))


def _driving_term(lam, params: ModelParams, roots: RootTable, points):
    """Free part of the excited-state equation: lambda^2 - h - 2 pi i alpha T
    plus the root source i T sum_j half_j theta(lambda - s_j), summed as
    the halves times one (roots x nodes) block."""
    T = params.T
    h_alpha = params.h + 2.0j * np.pi * params.alpha * T
    src = roots.halves @ theta_odd(np.subtract.outer(-points, -lam), params.c)
    return lam ** 2 - h_alpha + 1j * T * src


class USolution(NamedTuple):
    """Excited-state energy u on the deformed contour, with its roots."""

    params: ModelParams
    cls: ExcitationClass
    thermal: ThermalSolution
    contour: Contour
    u_values: np.ndarray
    log_weight: np.ndarray  # log(1 + e^{-u/T})
    z: np.ndarray           # phase function on the nodes
    roots: RootTable
    points: np.ndarray      # root positions, as roots
    iterations: int
    residual: float

    def u_at(self, lam):
        """Continuation of u off the contour via its own integral equation;
        valid within a strip of half-width c around the contour."""
        return continuation(
            np.asarray(lam, dtype=complex),
            lambda x: _driving_term(x, self.params, self.roots, self.points),
            self.contour, self.log_weight, self.params)

    def u_prime_at(self, lam):
        T, c = self.params.T, self.params.c
        lam = np.asarray(lam, dtype=complex)
        flat = np.atleast_1d(lam)
        kx = kernel_prime(flat[:, None] - self.contour.nodes[None, :], c)
        tail = (T / (2.0 * np.pi)) * (kx @ (self.contour.weights * self.log_weight))
        src = self.roots.halves @ kernel(
            np.subtract.outer(-self.points, -flat), c)
        out = 2.0 * flat - tail + 1j * T * src
        return out[0] if lam.ndim == 0 else out


def solve_u(params: ModelParams, cls: ExcitationClass,
            thermal: ThermalSolution, gs: GroundState = None) -> USolution:
    """Solve of the excited-state integral equation with the roots fixed at
    their leading-order positions, by the solve that also serves the
    thermal energy.

    The equation is solved on the deformed contour of excitation_contour
    over the grid of ``thermal``, which ends where the thermal weight
    dies; the contour realizes the analytic continuation in alpha of the
    constraint-satisfying regime, and all closed low-temperature forms
    refer to that continuation.  The contour is odd, so the kernel acts on
    it by its mirror fold, and eps, which is even, is continued on its upper
    half; that eps, which the phase z needs, also starts the solve.
    ``thermal`` carries the ground state; one of other parameters,
    or on a ground state other than ``gs``, is refused.
    """
    if params.T > 0.05 * params.h:
        raise ValueError("excited-state solve gated to T <= 0.05 h")
    if (thermal.params.c, thermal.params.h, thermal.params.T) != (
            params.c, params.h, params.T):
        raise ValueError("thermal solution was solved for another (c, h, T)")
    if gs is not None and thermal.gs is not gs:
        raise ValueError("thermal solution was built on another ground state")
    gs = thermal.gs
    roots = root_offsets(gs, cls, params.alpha)
    T = params.T
    drift = T * max((abs(r.offset) for r in roots), default=0.0)
    if drift > 0.25 * min(gs.q, params.c):
        raise ValueError("roots drift too far from the Fermi points; lower T")
    points = roots.points(gs.q, T)

    contour = excitation_contour(thermal, roots.u1_at_q)
    lam = contour.nodes
    eps = unfold_even(thermal.eps_at(upper_half(lam, contour.weights)[0]))
    direct, swap, w = mirror_fold(lam, contour.weights, params.c)
    u, lw, it, residual = solve_on(
        MirrorFold.from_blocks(direct, swap), unfold_even(w),
        _driving_term(lam, params, roots, points), eps, params)
    # the phase z = -(1/2 pi i) log[(1+e^{-u/T})/(1+e^{-eps/T})] vanishes
    # at both contour ends.  log(1 + e^{-eps/T}) takes the two-sided stable
    # evaluation, as for u in the fixed point.  Away from the Fermi
    # crossover windows both stable pieces are exact analytic continuations
    # of each other (the switch error is below double precision), so the
    # only branch freedom lives in windows of width ~T around +-q.  The
    # contour keeps the local phase |Im u/T| inside (-pi, pi) there, which
    # makes this the branch fixed by continuity and by decay at both tails.
    z = -(lw - stable_log1pexp(eps / T)) / (2.0j * np.pi)
    return USolution(params=params, cls=cls, thermal=thermal,
                     contour=contour, u_values=u, log_weight=lw, z=z,
                     roots=roots, points=points, iterations=it,
                     residual=residual)


def decay_rate_numeric(sol: USolution) -> complex:
    """Decay rate from the phase integral minus the root sum."""
    root_sum = sum(r.half * s for r, s in zip(sol.roots, sol.points))
    return complex(1j * np.sum(sol.contour.weights * sol.z) - 1j * root_sum)
