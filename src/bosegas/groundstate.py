"""Zero-temperature state of the delta-interacting Bose gas.

Solves the linear integral equations on the Fermi interval [-q, q] for the
dressed energy, the density / dressed charge and the resolvent, locates the
Fermi boundary q(h), and collects the derived scalars (dressed charge at the
boundary, average density, Fermi momentum, sound velocity).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .numerics import (Grid, NumericsError, NystromSolution, composite_grid,
                       nystrom_factorize, nystrom_solve)

FERMI_NODES = 96  # Gauss-Legendre nodes on the Fermi interval [-q, q]


def kernel(lam, c: float):
    """Interaction kernel K(lambda) = 2c / (lambda^2 + c^2)."""
    return 2.0 * c / (lam * lam + c * c)


def kernel_prime(lam, c: float):
    """Derivative of the interaction kernel."""
    return -4.0 * c * lam / (lam * lam + c * c) ** 2


def kernel_block(rows, cols, c: float):
    """Kernel matrix K(rows_i - cols_j), built in place in one buffer of
    the result dtype of the nodes."""
    m = np.subtract.outer(rows, cols, dtype=np.result_type(rows, cols, float))
    m *= m
    m += c * c
    np.divide(2.0 * c, m, out=m)
    return m


class _Params(NamedTuple):
    c: float
    h: float
    T: float
    alpha: complex


class ModelParams(_Params):
    """Physical inputs: coupling c, chemical potential h, temperature T,
    and the twist parameter alpha of the generating function; checked on
    construction, equal and hashed by value."""

    __slots__ = ()

    def __new__(cls, c: float, h: float, T: float = 0.0,
                alpha: complex = 0.0):
        if not 0 < c < np.inf:
            raise ValueError("coupling c must be positive and finite")
        if not 0 < h < np.inf:
            raise ValueError("chemical potential must be positive and finite")
        if not 0 <= T < np.inf:
            raise ValueError("temperature must be non-negative and finite")
        if not np.isfinite(alpha):
            raise ValueError("twist alpha must be finite")
        return super().__new__(cls, c, h, T, alpha)

    # ``_replace`` builds its copy through ``_make``: check it as well
    _make = classmethod(lambda cls, values: cls(*values))


def fermi_grid(q: float, n_nodes: int) -> Grid:
    """Composite Gauss-Legendre grid on [-q, q], two mirrored panels: its
    nodes are exactly odd and its weights exactly even, as the parity
    split of ``nystrom_factorize`` requires."""
    if n_nodes <= 0 or n_nodes % 2:
        raise ValueError(f"grid size {n_nodes} is not a positive even integer")
    return composite_grid([-q, 0.0, q], n_nodes // 2)


_RESOLUTION = 1e-12  # largest Gauss-Legendre rate of an accepted Fermi grid
_COARSE_RESOLUTION = 1e-13  # rate that sizes the grid of the coarse search
_MAX_NEWTON = 50


def _drives(params: ModelParams, q: float):
    """Right-hand sides of eps0, eps0', Z and R(., -q) on [-q, q]."""
    c, h = params.c, params.h
    return (lambda lam: lam ** 2 - h,
            lambda lam: 2.0 * lam,
            lambda lam: np.ones_like(np.asarray(lam, dtype=float)),
            lambda lam: kernel(lam + q, c) / (2.0 * np.pi))


def _rate(c: float, q: float, n_nodes: int) -> float:
    """Gauss-Legendre rate (a + sqrt(a^2 + 1))^(-n_nodes), a = 2c/q, of
    ``fermi_grid(q, n_nodes)``: the kernel poles at +-ic limit the two
    panels of half-width q/2 to it."""
    a = 2.0 * c / q
    return (a + np.sqrt(a * a + 1.0)) ** (-n_nodes)


def _check_resolution(params: ModelParams, q: float, n_nodes: int,
                      relation: str):
    """Refuse a grid whose rate at q exceeds ``_RESOLUTION``; ``relation``
    says whether q is the root ("=") or a lower bound of it (">=")."""
    rate = _rate(params.c, q, n_nodes)
    if rate > _RESOLUTION:
        raise NumericsError(f"{n_nodes} nodes unresolved at q/c {relation} "
                            f"{q / params.c:.3g} (rate {rate:.1e})")


def _newton(params: ModelParams, kern, q: float, n_nodes: int):
    """Newton iteration on E(q) = eps0(q|q) from q on ``fermi_grid(q,
    n_nodes)``, to a step of at most 1e-13 q.  Returns the last iterate,
    its grid and factorization and its eps0, eps0' and R(., -q)."""
    for _ in range(_MAX_NEWTON):
        grid = fermi_grid(q, n_nodes)
        inv = nystrom_factorize(kern, grid)
        energy, slope, _, drive_minus = _drives(params, q)
        terms = (energy, slope, drive_minus)
        values = [inv @ f(grid.nodes) for f in terms]
        # the three at q by the natural Nystrom formula on one kernel row,
        # not three NystromSolution calls: this is the search's inner loop
        row = kern(q, grid.nodes) * grid.weights / (2.0 * np.pi)
        edge, d_edge, r_edge = (float(f(q) + row @ v)
                                for f, v in zip(terms, values))
        step = edge / (d_edge + 2.0 * edge * r_edge)
        if abs(step) <= 1e-13 * q:
            return q, grid, inv, [NystromSolution(grid, v, kern, f)
                                  for v, f in zip(values, terms)]
        q -= step
        if not q > 0:
            raise NumericsError(f"Newton iterate q = {q:.3g}; use more nodes")
    raise NumericsError(f"no Fermi boundary in {_MAX_NEWTON} Newton steps")


def solve_fermi_boundary(params: ModelParams, n_nodes: int):
    """Fermi boundary q, where eps0(q|q) = 0, and the interval solutions
    eps0, eps0', Z and R(., -q).

    Newton iteration on E(q) = eps0(q|q), twice with one loop body: from
    q = sqrt(h), where E < 0, on a coarse grid, then on the full grid from
    the coarse root.  As d eps0(lambda|q)/dq = E [R(lambda, q) +
    R(lambda, -q)], the exact slope dE/dq = eps0'(q) + 2 E R(q, -q) comes
    from the same factorization as E; each iterate solves only eps0, eps0'
    and R(., -q), and Z is solved once, at the accepted q; R(l, q) is the
    mirror R(-l, -q).
    The Gauss-Legendre rate ``_rate`` worsens as q grows, and the root lies
    above sqrt(h): a grid unresolved at sqrt(h) is refused before any
    solve, and the full grid is checked again at the root, not on the way,
    since the first step overshoots.  The coarse grid is the smallest even
    one of rate 1e-13 at sqrt(h), at most half the full one.
    """
    kern = lambda x, y: kernel(x - y, params.c)
    q = float(np.sqrt(params.h))
    _check_resolution(params, q, n_nodes, ">=")
    coarse = 2 * int(np.ceil(np.log(_COARSE_RESOLUTION)
                             / (2.0 * np.log(_rate(params.c, q, 1)))))
    coarse = max(2, min(coarse, n_nodes // 4 * 2))
    q = _newton(params, kern, q, coarse)[0]
    q, grid, inv, (eps0, eps0_prime, R_minus) = _newton(params, kern, q,
                                                        n_nodes)
    _check_resolution(params, q, n_nodes, "=")
    _, _, charge, _ = _drives(params, q)
    Z = nystrom_solve(kern, grid, inv, charge)
    return q, (eps0, eps0_prime, Z, R_minus)


class GroundState(NamedTuple):
    """T=0 data: Fermi boundary, sampled functions and derived scalars."""

    params: ModelParams
    q: float
    grid: Grid
    eps0: NystromSolution        # dressed energy
    eps0_prime: NystromSolution  # its dressed derivative
    Z: NystromSolution           # dressed charge
    R_minus: NystromSolution     # resolvent R(., -q)
    Zq: float
    eps0_prime_q: float
    D: float
    kF: float
    v0: float

    def exponent(self, al):
        """Envelope exponent 2 al^2 Zq^2 at the shifted twist al."""
        return 2.0 * al ** 2 * self.Zq ** 2

    def _check(self):
        h, q = self.params.h, self.q
        edge = abs(self.eps0(q))  # eps0 is exactly even: eps0(-q) adds nothing
        if edge > 1e-10 * h:
            raise ArithmeticError(f"dressed energy at the edge: {edge:.2e}")
        # the unfolded equations on the full grid: eps0 and Z check the
        # even block, eps0' the odd one
        lam = self.grid.nodes
        kw = kernel_block(lam, lam, self.params.c)
        kw *= self.grid.weights / (2.0 * np.pi)
        residual = max(np.max(np.abs(f.values - kw @ f.values - f.rhs_fn(lam)))
                       for f in (self.eps0, self.eps0_prime, self.Z))
        if residual > 1e-10 * max(h, 1.0):
            raise ArithmeticError(f"Fermi-interval residual {residual:.2e}")
        if self.Zq < 1.0 - 1e-10:
            raise ArithmeticError(f"dressed charge at the edge {self.Zq} < 1")
        if not (self.eps0_prime_q > 0 and self.v0 > 0):
            raise ArithmeticError("edge slope / sound velocity not positive")


def build_ground_state(params: ModelParams,
                       n_nodes: int = FERMI_NODES) -> GroundState:
    """All T=0 functions, from the last Newton iterate of the boundary."""
    q, (eps0, eps0_prime, Z, R_minus) = solve_fermi_boundary(
        params, n_nodes=n_nodes)
    Zq = float(np.real(Z(q)))
    epsp = float(np.real(eps0_prime(q)))
    D = float(np.real(Z.integral())) / (2.0 * np.pi)
    gs = GroundState(params=params, q=q, grid=Z.grid, eps0=eps0,
                     eps0_prime=eps0_prime, Z=Z, R_minus=R_minus, Zq=Zq,
                     eps0_prime_q=epsp, D=D, kF=np.pi * D, v0=epsp / Zq)
    gs._check()
    return gs
