"""Quadrature and linear-algebra substrate.

Gauss-Legendre grids (single interval or graded composite panels) with
closed-form barycentric interpolation and differentiation on each panel,
mirror folds on negation-closed node sets, Nystrom solution of second-kind
linear integral equations by such a fold, Fredholm determinants on
intervals and closed contours (a conjugation-symmetric one through a real
matrix of the same size), and Cauchy transforms: one far-field sum, and
singularity subtraction near the integration interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss


class NumericsError(Exception):
    """Generic numerical failure (singular operator, bad geometry, ...)."""


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _ReferenceRule:
    """n-point Gauss-Legendre rule on [-1, 1] with its barycentric weights
    (-1)^j sqrt((1 - x_j^2) w_j) (Wang, Huybrechs & Vandewalle, Math. Comp.
    83 (2014) 2893) and differentiation matrix D_ij = (bary_j / bary_i) /
    (x_i - x_j), i != j (Berrut & Trefethen, SIAM Rev. 46 (2004) 501)."""

    nodes: np.ndarray
    weights: np.ndarray
    bary: np.ndarray
    diff: np.ndarray


@lru_cache(maxsize=None)
def _reference_rule(n: int) -> _ReferenceRule:
    x, w = leggauss(n)
    bary = (-1.0) ** np.arange(n) * np.sqrt((1.0 - x * x) * w)
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    diff = (bary[None, :] / bary[:, None]) / dx
    np.fill_diagonal(diff, 0.0)
    # negative-sum diagonal: rows annihilate constants exactly, and in
    # rounding it beats the closed form x_i / (1 - x_i^2) by over two digits
    np.fill_diagonal(diff, -diff.sum(axis=1))
    for arr in (x, w, bary, diff):
        arr.setflags(write=False)  # shared by every grid with n per panel
    return _ReferenceRule(x, w, bary, diff)


@dataclass(frozen=True)
class Grid:
    """Composite Gauss-Legendre quadrature grid on [a, b].

    ``breakpoints`` bound the panels; nodes/weights are the concatenation of
    the per-panel Gauss-Legendre rules, all mapped from one reference rule.
    All kernels in this package are analytic on their panels, so
    convergence is spectral panel by panel.
    """

    a: float
    b: float
    breakpoints: np.ndarray        # shape (npanels+1,), increasing
    nodes: np.ndarray              # shape (N,), increasing
    weights: np.ndarray            # shape (N,), positive

    @property
    def size(self) -> int:
        return self.nodes.size

    @property
    def _rule(self) -> _ReferenceRule:
        return _reference_rule(self.nodes.size // (self.breakpoints.size - 1))

    def derivative(self, values):
        """Panel-wise spectral derivative of sampled values, on the nodes."""
        widths = np.diff(self.breakpoints)
        per_panel = np.asarray(values).reshape(widths.size, -1)
        out = (per_panel @ self._rule.diff.T) * (2.0 / widths)[:, None]
        return out.reshape(-1)


@dataclass(frozen=True)
class SampledFunction:
    """Values of a function on a quadrature grid; the universal carrier."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.grid.nodes.shape:
            raise ValueError("values do not match the grid")

    @property
    def nodes(self):
        return self.grid.nodes

    @property
    def weights(self):
        return self.grid.weights

    def __call__(self, x):
        """Barycentric interpolation on the panel that holds each point;
        points on a node return the sampled value itself."""
        grid, edges = self.grid, self.grid.breakpoints
        x = np.asarray(x, dtype=float)
        panel = np.searchsorted(edges[1:-1], x.reshape(-1), side="right")
        nodes = grid.nodes.reshape(edges.size - 1, -1)[panel]
        vals = self.values.reshape(edges.size - 1, -1)[panel]
        dx = x.reshape(-1, 1) - nodes
        hit = dx == 0.0
        c = grid._rule.bary / np.where(hit, 1.0, dx)
        out = np.sum(c * vals, axis=1) / np.sum(c, axis=1)
        rows, cols = np.nonzero(hit)
        out[rows] = vals[rows, cols]
        return out[0] if x.ndim == 0 else out.reshape(x.shape)

    def integral(self):
        return np.sum(self.weights * self.values)


def composite_grid(breakpoints, n_per_panel: int) -> Grid:
    """Gauss-Legendre rule on each sub-interval of ``breakpoints``."""
    bp = np.asarray(breakpoints, dtype=float)
    if bp.size < 2 or np.any(np.diff(bp) <= 0):
        raise ValueError("breakpoints must be strictly increasing")
    rule = _reference_rule(n_per_panel)
    mid = 0.5 * (bp[:-1] + bp[1:])[:, None]
    half = 0.5 * (bp[1:] - bp[:-1])[:, None]
    return Grid(bp[0], bp[-1], bp, (mid + half * rule.nodes).reshape(-1),
                (half * rule.weights).reshape(-1))


def graded_breakpoints(a: float, b: float, centers, w0: float, wmax: float):
    """Breakpoints refined geometrically towards each point in ``centers``.

    Panel widths start at w0 next to a center and triple away from it; long
    panels are capped at ``wmax``.
    """
    span = b - a
    pts = {a, b}
    for s in centers:
        if not a < s < b:
            continue
        pts.add(s)
        off = w0
        while off < span:
            for x in (s - off, s + off):
                if a < x < b:
                    pts.add(x)
            off *= 3.0
    bp = np.array(sorted(pts))
    # drop breakpoints closer than w0/2 to their neighbour (keep ends/centers)
    keep = [bp[0]]
    protected = set(centers) | {a, b}
    for x in bp[1:]:
        if x - keep[-1] >= 0.49 * w0 or x in protected:
            if x in protected and x - keep[-1] < 0.49 * w0 and keep[-1] not in protected:
                keep.pop()
            keep.append(x)
    out = [keep[0]]
    for lo, hi in zip(keep, keep[1:]):
        nsplit = int(np.ceil((hi - lo) / wmax))
        out.extend(lo + (hi - lo) * j / nsplit for j in range(1, nsplit))
        out.append(hi)
    return np.array(out)


# ---------------------------------------------------------------------------
# contours
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Contour:
    """Contour discretized by its nodes and quadrature weights.

    ``weights`` are the complex measures dz at each node, so that
    sum(weights * f(nodes)) approximates the contour integral of f.
    ``ellipse`` builds a closed anticlockwise one by the uniform-parameter
    trapezoid rule, spectrally accurate for periodic analytic integrands.
    """

    nodes: np.ndarray
    weights: np.ndarray

    @classmethod
    def ellipse(cls, semi_real: float, semi_imag: float, n: int) -> "Contour":
        if n < 1:
            raise ValueError(f"contour size must be positive, not {n}")
        # cos and sin of 2 pi k/n as sin(pi p/2n) at p = n - 4k and p = 4k,
        # p folded exactly into [0, n]: the nodes about the origin are then
        # closed under conjugation and, for even n, under negation, exactly
        # and not only to rounding
        p = np.mod(np.array([n - 4 * np.arange(n), 4 * np.arange(n)]), 4 * n)
        sign = np.where(p > 2 * n, -1.0, 1.0)
        p = n - np.abs(n - np.minimum(p, 4 * n - p))
        cos, sin = sign * np.sin(np.pi * p / (2 * n))
        z = semi_real * cos + 1j * semi_imag * sin
        dz = (-semi_real * sin + 1j * semi_imag * cos) * (2.0 * np.pi / n)
        return cls(z, dz)


# ---------------------------------------------------------------------------
# Nystrom solver
# ---------------------------------------------------------------------------

class NystromSolution(SampledFunction):
    """Solution of f - (1/2pi) K f = rhs with off-grid interpolation.

    Off-grid values use the natural Nystrom formula
    f(x) = rhs(x) + (1/2pi) sum_j w_j K(x, x_j) f_j,
    which keeps the full quadrature accuracy away from the grid.
    """

    def __init__(self, grid, values, kernel, rhs_fn):
        super().__init__(grid, values)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "rhs_fn", rhs_fn)

    def __call__(self, x):
        x = np.asarray(x)
        kx = self.kernel(np.atleast_1d(x)[:, None], self.nodes[None, :])
        out = self.rhs_fn(np.atleast_1d(x)) + (1.0 / (2.0 * np.pi)) * (
            kx @ (self.weights * self.values))
        return out[0] if x.ndim == 0 else out


def upper_half(nodes, weights):
    """x = nodes[n//2:] and weights w with sum f(nodes) weights =
    sum (f(x) + f(-x)) w, a node at 0 keeping half its weight; a node set
    whose nodes are not exactly odd and weights even raises ValueError."""
    n = nodes.size
    if not (np.array_equal(nodes[::-1], -nodes)
            and np.array_equal(weights[::-1], weights)):
        raise ValueError("nodes are not mirror-symmetric with even weights")
    w = weights[n // 2:].copy()
    if n % 2:
        w[0] *= 0.5
    return nodes[n // 2:], w


@dataclass(frozen=True)
class MirrorFold:
    """An operator with M(-x, -y) = M(x, y) on a negation-closed node set,
    applied by ``@`` through its blocks on the upper nodes of ``upper_half``:
    ``even`` on the even part of a vector and ``odd`` on its odd part, so
    parity is exact.  For odd n the middle node, 0, is its own image."""

    even: np.ndarray
    odd: np.ndarray

    @classmethod
    def from_blocks(cls, direct, swap):
        """Fold of M(x, y) and M(x, -y); ``direct`` becomes the odd block."""
        return cls(direct + swap, np.subtract(direct, swap, out=direct))

    def __matmul__(self, v):
        half = v.size // 2
        upper, mirror = v[half:], v[::-1][half:]
        even = self.even @ (0.5 * (upper + mirror))
        odd = self.odd @ (0.5 * (upper - mirror))
        return np.concatenate([(even - odd)[::-1][:half], even + odd])


def unfold_even(upper, n: int):
    """An even function on the n nodes of a negation-closed set from its
    values on the upper nodes of ``upper_half``."""
    return np.concatenate([upper[::-1][:n // 2], upper])


@dataclass(frozen=True)
class ParityInverse(MirrorFold):
    """Mirror fold of a Nystrom operator's inverse, and the exact 1-norm
    condition number of the full operator."""

    cond: float


def nystrom_factorize(kernel, grid: Grid) -> ParityInverse:
    """Invert A = I - (1/2pi) K W on an even-sized grid with nodes odd and
    weights even under x -> -x, for a kernel with K(-x, -y) = K(x, y): on
    the upper nodes x, through its even and odd blocks I - kd -+ ks, with
    kd_ij = K(x_i, x_j) w_j / 2pi and ks_ij = K(x_i, -x_j) w_j / 2pi.  A's
    columns are (I - kd) over ks and A^-1's (inv_e + inv_o)/2 over
    (inv_e - inv_o)/2, so the blocks give cond_1(A) = ||A||_1 ||A^-1||_1;
    above 1e13 the operator is refused."""
    if grid.size % 2:
        raise ValueError("Nystrom grid is not mirror-symmetric of even size")
    x, w = upper_half(grid.nodes, grid.weights)
    w /= 2.0 * np.pi
    direct = np.eye(x.size) - kernel(x[:, None], x[None, :]) * w
    swap = kernel(x[:, None], -x[None, :]) * w
    try:
        inv = np.linalg.inv(np.stack([direct - swap, direct + swap]))
    except np.linalg.LinAlgError as exc:
        raise NumericsError(f"singular discretized operator: {exc}") from exc
    cond = float(np.max(np.sum(np.abs(direct) + np.abs(swap), axis=0))
                 * 0.5 * np.max(np.sum(np.abs(inv[0] + inv[1])
                                       + np.abs(inv[0] - inv[1]), axis=0)))
    if not np.isfinite(cond) or cond > 1e13:
        raise NumericsError(f"discretized operator ill-conditioned (cond={cond:.2e})")
    return ParityInverse(inv[0], inv[1], cond)


def nystrom_solve(kernel, grid: Grid, inverse: ParityInverse,
                  rhs_fn) -> NystromSolution:
    """Solve f(x) - (1/2pi) int K(x, y) f(y) dy = rhs_fn(x) on ``grid``,
    given ``inverse = nystrom_factorize(kernel, grid)``; the even and odd
    parts of rhs go through their own blocks, so the parity of an even or
    odd rhs is exact in f."""
    return NystromSolution(grid, inverse @ rhs_fn(grid.nodes), kernel, rhs_fn)


# ---------------------------------------------------------------------------
# Fredholm determinants
# ---------------------------------------------------------------------------

def fredholm_logdet(matrix, domain, prefactor: complex) -> complex:
    """log det(I + prefactor * K), K the kernel ``matrix`` sampled at the
    nodes of ``domain``; avoids overflow when factors are combined."""
    if not np.all(np.isfinite(matrix)):
        raise NumericsError("non-finite kernel sample in Fredholm determinant")
    # a fresh buffer: the caller keeps its matrix
    mat = np.multiply(prefactor, matrix, dtype=complex)
    mat *= domain.weights
    mat.flat[::len(mat) + 1] += 1.0
    sign, logabs = np.linalg.slogdet(mat)
    if sign == 0:
        raise NumericsError("vanishing Fredholm determinant")
    return complex(np.log(sign) + logabs)


@dataclass(frozen=True)
class ConjugatePairing:
    """Node indices of a set closed under conjugation: the ``real`` nodes
    are their own conjugates, and node ``pairs[k, 1]`` is the conjugate of
    node ``pairs[k, 0]``.

    A matrix A on such nodes with A[j~, k~] = conj(A[j, k]) has a real
    determinant det(I + A): combining each pair of columns as a_k + a_k~ and
    i(a_k - a_k~) (determinant (-2i)^m over m pairs) makes row j~ the
    conjugate of row j, and taking Re and Im of each paired row (determinant
    (i/2)^m) leaves a real matrix T with det T = det(I + A) and the identity
    on its diagonal. T reads only the rows ``rows`` of A.
    """

    real: np.ndarray
    pairs: np.ndarray  # shape (m, 2)

    @property
    def rows(self) -> np.ndarray:
        """The real nodes, then the first node of each pair."""
        return np.concatenate([self.real, self.pairs[:, 0]])

    def columns(self, matrix) -> np.ndarray:
        """Columns of ``matrix`` at the real nodes, then a_k + a_k~ and then
        i(a_k - a_k~) over the pairs (k, k~)."""
        nr, m = self.real.size, len(self.pairs)
        out = np.empty((len(matrix), nr + 2 * m), dtype=complex)
        out[:, :nr] = matrix[:, self.real]
        a, b = matrix[:, self.pairs[:, 0]], matrix[:, self.pairs[:, 1]]
        np.add(a, b, out=out[:, nr:nr + m])
        np.multiply(1j, np.subtract(a, b, out=b), out=out[:, nr + m:])
        return out

    def logabsdet(self, combined) -> float:
        """log|det(I + A)| from ``combined = columns(A)[rows]``, by one real
        LU of T; det(I + A) is real, and its sign is dropped."""
        if not np.all(np.isfinite(combined)):
            raise NumericsError(
                "non-finite kernel sample in Fredholm determinant")
        t = np.vstack([combined.real, combined[self.real.size:].imag])
        t.flat[::len(t) + 1] += 1.0
        sign, logabs = np.linalg.slogdet(t)
        if sign == 0:
            raise NumericsError("vanishing Fredholm determinant")
        return float(logabs)


# ---------------------------------------------------------------------------
# Cauchy transforms
# ---------------------------------------------------------------------------

def cauchy_sum(nodes, weighted, omega):
    """sum_j weighted_j / (nodes_j - omega) for omega far from the nodes,
    a complex number at a scalar omega, else an array.  x - omega, built
    C-ordered as (-omega) - (-x), is exact but for the sign of a zero
    imaginary part, which a numpy sum, never -0, cannot pass on."""
    om = np.asarray(omega, dtype=complex)
    d = np.subtract.outer(-om, -nodes)
    out = np.sum(np.divide(weighted, d, out=d), axis=-1)
    return complex(out) if om.ndim == 0 else out


def cauchy_transform(f: SampledFunction, omega):
    """L[f](omega) = int_a^b f(x) / (x - omega) dx for omega off [a, b].

    ``omega`` may be a scalar (complex result) or an array (array result of
    the same shape).  Direct quadrature at points far from the interval;
    close to it, f is subtracted at the nearest point of [a, b] (Re omega
    clipped to the interval) and the subtracted constant is integrated in
    closed form, point by point.  A non-finite omega raises
    ``NumericsError``.
    """
    grid = f.grid
    a, b = grid.a, grid.b
    om = np.asarray(omega, dtype=complex)
    flat = om.reshape(-1)
    if not np.all(np.isfinite(flat)):
        raise NumericsError("Cauchy transform at a non-finite point")
    inside = (a <= flat.real) & (flat.real <= b)
    if np.any(inside & (flat.imag == 0.0)):
        raise NumericsError("Cauchy transform evaluated on the integration interval")
    spacing = (b - a) / grid.size
    dist_a, dist_b = np.abs(flat - a), np.abs(flat - b)
    dist = np.where(inside, np.abs(flat.imag), np.minimum(dist_a, dist_b))
    near = dist <= 4.0 * spacing
    far = ~near
    # far points subtract nothing: ``cauchy_sum`` of w f, formed once, is the
    # subtracted formula's arithmetic on its exact zero, and the far points'
    # closed-form term (0 times finite logs, so +-0) cannot change a bit
    reg = np.empty(flat.shape, dtype=complex)
    reg[far] = cauchy_sum(f.nodes, np.multiply(f.weights, f.values,
                                               dtype=complex), flat[far])
    if np.any(near):
        z = flat[near]
        f_near = np.asarray(f(np.clip(z.real, a, b)), dtype=complex)
        # principal logs are safe: Im(x - omega) has a fixed sign on [a, b]
        reg[near] = (np.sum(f.weights * (f.values - f_near[:, None])
                            / (f.nodes - z[:, None]), axis=1)
                     + f_near * (np.log(b - z) - np.log(a - z)))
    return complex(reg[0]) if om.ndim == 0 else reg.reshape(om.shape)
