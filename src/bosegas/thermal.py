"""Finite-temperature state of the gas.

The one path for the nonlinear integral equation shared by the thermal
excitation energy eps (on a real grid) and the excited-state energy u (on
a deformed contour): one Anderson-accelerated solve with its tolerance and
its refusal of an undecayed log weight, and one continuation off the nodes.
Kernel blocks carry no quadrature weights: both the solve and the
continuation multiply the weights into the vector they apply the kernel to.
Both node sets are closed under negation, so the kernel is halved by its
mirror fold: even eps solves on the half line with the even block, and u
goes through both blocks of ``numerics.MirrorFold``.  The real grid ends
where the thermal weight dies, at the root of eps0 = 40 T, so every panel
holds a node with eps < 40 T, and u is solved over the whole grid.
The low-temperature correction law of eps is a check, in ``verification``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .groundstate import GroundState, ModelParams, kernel_block
from .groundstate import build_ground_state  # kept for bench/test_bench.py
from .numerics import (Grid, SampledFunction, NumericsError, composite_grid,
                       graded_breakpoints, unfold_even, upper_half)

PANEL_NODES = 16  # Gauss-Legendre nodes per panel of the real-line grid
# eps / T beyond which the thermal weight log(1 + e^{-eps/T}) < 5e-18 is
# dead: the grid ends at the root of eps0 = DEAD_EPS_OVER_T T
DEAD_EPS_OVER_T = 40.0
# first-step damping, Anderson mixing depth, iteration cap and relative
# tolerance of the shared fixed point
_DAMPING = 0.5
_DEPTH = 5
_MAX_ITER = 500
_TOL_FACTOR = 1e-12


def stable_log1pexp(x):
    """log(1 + e^{-x}) for real or complex x, stable on both tails.

    For Re x > 0 the direct log1p applies; otherwise the exponent is pulled
    out first.  Both branches keep |log1p argument| < 1 so no overflow and
    no branch winding can occur inside log1p itself.
    """
    x = np.asarray(x)
    pos = np.real(x) > 0
    neg = -x
    out = np.log1p(np.exp(np.where(pos, neg, x)))
    return np.where(pos, out, neg + out)


def thermal_cutoff(params: ModelParams, gs: GroundState) -> float:
    """Truncation radius: the root of eps0 = DEAD_EPS_OVER_T T, beyond which
    the thermal weight is dead, by Newton's method.

    Off [-q, q], eps0 < lambda^2 - h, so the root lies beyond
    sqrt(h + 40 T), where the search starts; eps0' is d eps0/d lambda off
    [-q, q], as eps0(+-q) = 0.
    """
    target = DEAD_EPS_OVER_T * params.T
    lam = core = np.sqrt(params.h + target)
    for _ in range(50):
        step = (gs.eps0(lam) - target) / gs.eps0_prime(lam)
        lam -= step
        if abs(step) <= 1e-13 * lam:
            return lam
    raise NumericsError(f"no root of eps0 = 40 T beyond {core:.3g}")


def thermal_grid(params: ModelParams, gs: GroundState,
                 n_per_panel: int) -> Grid:
    """Real-line grid graded towards the Fermi points +-q, mirror-symmetric
    exactly: nodes odd and weights even under x -> -x.

    The crossover windows of the Fermi weight have width ~ T / eps0'(q), so
    panel widths start at that scale next to +-q and grow geometrically.
    The left-to-right pruning of the graded sequence can keep different
    neighbours on the two sides, so the positive breakpoints (and 0, if it
    is one) are mirrored onto the negative half line.
    """
    lam = thermal_cutoff(params, gs)
    w0 = max(2.0 * params.T / gs.eps0_prime_q, 1e-4 * gs.q)
    bp = graded_breakpoints(-lam, lam, [-gs.q, gs.q], w0,
                            0.8 * min(params.c, lam))
    pos = bp[bp > 0]
    return composite_grid(np.concatenate([-pos[::-1], bp[bp == 0], pos]),
                          n_per_panel)


def mirror_fold(nodes, weights, c: float):
    """The kernel on a negation-closed node set folded onto its upper half
    x (``upper_half``): A = K(x - y), B = K(x + y) and the weights w of x.
    K is even, so A + B acts on even functions and A - B on odd ones, each
    times w; a node at 0 has half its weight in w, as A + B counts it
    twice."""
    x, w = upper_half(nodes, weights)
    return kernel_block(x, x, c), kernel_block(x, -x, c), w


@dataclass(frozen=True)
class ThermalSolution:
    """Solved thermal excitation energy on a truncated real-line grid."""

    params: ModelParams
    gs: GroundState = field(repr=False)
    grid: Grid = field(repr=False)
    eps: SampledFunction = field(repr=False)
    log_weight: np.ndarray = field(repr=False)  # log(1+e^{-eps/T}) on nodes
    iterations: int
    residual: float

    def eps_at(self, lam):
        """Analytic continuation of eps via its own integral equation."""
        return continuation(np.asarray(lam), lambda x: x ** 2 - self.params.h,
                            self.grid, self.log_weight, self.params)


def _fixed_point(bare, start, kmat, weights, T: float, tol: float):
    """Solve f = bare - (T/2pi) kmat (weights log(1 + e^{-f/T})) by Anderson
    mixing from f = start.

    ``kmat`` applies the kernel on the nodes (real grid or deformed
    contour, or a mirror fold of either) and ``weights`` are the quadrature
    weights it meets on the vector side.  The first step is half-damped;
    after it, type-II Anderson mixing (Walker & Ni, SIAM J. Numer. Anal. 49
    (2011) 1715) over the last ``_DEPTH`` differences dR of residuals
    r = g - f and dG of maps g takes f = g - dG gamma, with gamma from the
    Gram system dR^H dR gamma = dR^H r.  The differences live in a ring
    buffer of ``_DEPTH`` rows, each pair scaled so that its dR has unit
    norm, and each step writes one row and one column of the Gram matrix.
    Unit norms put 1 on its diagonal, and +-1 off it for collinear
    differences, as in any one-node problem: such a singular Gram matrix
    (``LinAlgError``), or a zero dR, restarts the history with another
    half-damped step.  Returns the solution, its log weight
    log(1 + e^{-f/T}), the number of map evaluations and the final
    sup-norm residual.
    """
    scaled = (T / (2.0 * np.pi)) * weights
    f = start
    residual = np.inf
    held = 0  # differences taken since the last half-damped step
    for it in range(1, _MAX_ITER + 1):
        g = bare - kmat @ (scaled * stable_log1pexp(f / T))
        r = g - f
        residual = float(np.max(np.abs(r)))
        if residual <= tol:
            f = g
            break
        if it == 1:
            d_r = np.empty((_DEPTH, r.size), dtype=r.dtype)
            d_g = np.empty_like(d_r)
            gram = np.empty((_DEPTH, _DEPTH), dtype=r.dtype)
        else:
            k = held % _DEPTH
            norm = np.linalg.norm(np.subtract(r, r_prev, out=d_r[k]))
            held = held + 1 if norm > 0.0 else 0  # a zero dR is singular too
        if held:
            m = min(held, _DEPTH)
            d_r[k] /= norm
            np.divide(np.subtract(g, g_prev, out=d_g[k]), norm, out=d_g[k])
            # row k of the Gram matrix is d_k^H d_i, its column the conjugate
            row = d_r[:m] @ np.conj(d_r[k])
            gram[k, :m], gram[:m, k] = row, np.conj(row)
            gram[k, k] = row[k].real
            try:
                gamma = np.linalg.solve(gram[:m, :m],
                                        np.conj(d_r[:m] @ np.conj(r)))
            except np.linalg.LinAlgError:
                held = 0
            else:
                f = g - gamma @ d_g[:m]
        if not held:
            f = (1.0 - _DAMPING) * f + _DAMPING * g
        r_prev, g_prev = r, g
    else:
        raise NumericsError(
            f"fixed point not converged in {_MAX_ITER} iterations "
            f"(residual {residual:.2e})")
    return f, stable_log1pexp(f / T), it, residual


def solve_on(kmat, weights, bare, start, params: ModelParams, ends=(0, -1)):
    """The finite-temperature solve shared by eps and u: the fixed point of
    f = bare - (T/2pi) kmat (weights log(1 + e^{-f/T})) from f = start,
    ``kmat`` the kernel on the nodes and ``weights`` their quadrature
    weights, to 1e-12 max(h, T).  A log weight that has not decayed at the
    outer nodes ``ends`` of the domain means the truncation cuts into the
    occupied region, and is refused.  Returns what ``_fixed_point``
    returns."""
    f, lw, it, residual = _fixed_point(bare, start, kmat, weights, params.T,
                                       _TOL_FACTOR * max(params.h, params.T))
    tail_decay = float(np.max(np.abs(lw[list(ends)])))
    if tail_decay > 1e-8:
        raise NumericsError(
            f"log weight does not decay at the grid ends ({tail_decay:.2e}); "
            f"enlarge the cutoff")
    return f, lw, it, residual


def continuation(lam, driving, domain, log_weight, params: ModelParams):
    """A solution of the shared equation continued off the nodes of its
    ``domain`` through the equation itself: driving(lam) minus
    (T/2pi) sum_j K(lam - x_j) W_j log_weight_j, the weights taken into
    the vector."""
    flat = np.atleast_1d(lam)
    kx = kernel_block(flat, domain.nodes, params.c)
    tail = kx @ ((params.T / (2.0 * np.pi)) * domain.weights * log_weight)
    out = driving(flat) - tail
    return out[0] if lam.ndim == 0 else out


def solve_yang_yang(params: ModelParams, gs: GroundState,
                    n_per_panel: int = PANEL_NODES) -> ThermalSolution:
    """Thermal excitation energy by the shared solve on the real grid, on
    ``gs``, which must be of the same (c, h).

    eps is even and the grid mirror-symmetric, so the solve runs on the
    upper half of the nodes with the even block A + B of ``mirror_fold``,
    and only the outermost node can show an undecayed tail.  It starts from
    its T -> 0 limit, eps0 continued to the nodes by its own equation.
    """
    if not params.T > 0:
        raise ValueError("finite-temperature solve requires T > 0")
    if (gs.params.c, gs.params.h) != (params.c, params.h):
        raise ValueError("ground state was built for another (c, h)")
    grid = thermal_grid(params, gs, n_per_panel)
    n = grid.size
    kmat, swap, w = mirror_fold(grid.nodes, grid.weights, params.c)
    kmat += swap
    x = grid.nodes[n // 2:]
    eps, lw, it, residual = solve_on(kmat, w, x ** 2 - params.h, gs.eps0(x),
                                     params, ends=(-1,))
    eps, lw = unfold_even(eps, n), unfold_even(lw, n)
    return ThermalSolution(params=params, gs=gs, grid=grid,
                           eps=SampledFunction(grid, eps), log_weight=lw,
                           iterations=it, residual=residual)
