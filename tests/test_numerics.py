"""Quadrature, Nystrom, determinant and Cauchy-transform oracles."""

import numpy as np
import pytest

from bosegas.groundstate import ModelParams, build_ground_state, kernel
from bosegas.numerics import (ConjugatePairing, Contour, MirrorFold,
                              NumericsError, SampledFunction,
                              cauchy_transform, composite_grid,
                              fredholm_logdet, graded_breakpoints,
                              nystrom_factorize, nystrom_solve, unfold_even,
                              upper_half)


def _spectral_case(case):
    """(grid, f, f') for the interpolation and differentiation tests."""
    if case == "uniform":
        return composite_grid([-1.0, 0.0, 1.0], 20), np.sin, np.cos
    # unequal panels graded towards 0.3, complex values
    grid = composite_grid(graded_breakpoints(-1.0, 1.0, [0.3], 0.05, 0.8), 16)
    k = 1.5 + 2.0j
    return grid, lambda x: np.exp(k * x), lambda x: k * np.exp(k * x)


class TestGrids:
    def test_polynomial_exactness(self):
        grid = composite_grid([-1.0, 2.0], 8)
        # 8-point rule integrates degree 15 exactly
        vals = grid.nodes ** 15
        exact = (2.0 ** 16 - 1.0) / 16.0
        assert abs(np.sum(grid.weights * vals) - exact) < 1e-12 * abs(exact)

    def test_composite_integral(self):
        grid = composite_grid([0.0, 0.3, 1.0], 16)
        val = np.sum(grid.weights * np.exp(grid.nodes))
        assert abs(val - (np.e - 1.0)) < 1e-14

    @pytest.mark.parametrize("case", ["uniform", "graded"])
    def test_interpolation_off_grid(self, case):
        grid, fn, _ = _spectral_case(case)
        f = SampledFunction(grid, fn(grid.nodes))
        x = np.array([-0.7, -0.1, 0.3, 0.45, 0.99, 1.0])
        assert np.max(np.abs(f(x) - fn(x))) < 1e-13
        assert abs(f(0.123) - fn(0.123)) < 1e-13
        # a point on a node returns the sample itself
        assert f(grid.nodes[7]) == f.values[7]

    @pytest.mark.parametrize("case", ["uniform", "graded"])
    def test_spectral_derivative(self, case):
        grid, fn, dfn = _spectral_case(case)
        der = grid.derivative(fn(grid.nodes))
        assert np.max(np.abs(der - dfn(grid.nodes))) < 1e-11

    def test_sampled_function_integral(self):
        grid = composite_grid([0.0, 2.0], 24)
        f = SampledFunction(grid, grid.nodes ** 2)
        assert abs(f.integral() - 8.0 / 3.0) < 1e-13

    def test_invalid_breakpoints(self):
        with pytest.raises(ValueError):
            composite_grid([0.0, 0.0, 1.0], 4)
        with pytest.raises(ValueError):
            composite_grid([1.0, 0.0], 4)

    def test_graded_breakpoints(self):
        bp = graded_breakpoints(-2.0, 2.0, [1.0], 0.01, 0.8)
        assert bp[0] == -2.0 and bp[-1] == 2.0
        assert np.any(np.isclose(bp, 1.0))
        assert np.all(np.diff(bp) > 0)
        # finest panels sit next to the center
        widths = np.diff(bp)
        at_center = np.argmin(np.abs(bp[:-1] - 1.0))
        assert widths[at_center] <= 2.0 * 0.01
        # and no panel is wider than the cap
        assert np.all(widths <= 0.8)


class TestContour:
    def test_cauchy_integral_inside(self):
        cont = Contour.ellipse(2.0, 1.0, 128)
        val = np.sum(cont.weights / (cont.nodes - 0.3 - 0.2j))
        assert abs(val - 2.0j * np.pi) < 1e-12

    def test_analytic_integrates_to_zero(self):
        cont = Contour.ellipse(2.0, 1.0, 128)
        val = np.sum(cont.weights * np.exp(cont.nodes))
        assert abs(val) < 1e-12

    def test_empty_contour_refused(self):
        # np.arange of a non-positive size is empty: every determinant 1
        for n in (0, -8):
            with pytest.raises(ValueError):
                Contour.ellipse(1.0, 0.5, n)

    @pytest.mark.parametrize("n", [6, 96, 255, 256, 512])
    def test_nodes_exactly_symmetric(self, n):
        # conjugation maps node k to node -k, and for even n negation maps
        # it to k + n/2, with dz following: exactly, not only to rounding
        cont = Contour.ellipse(1.4, 0.35, n)
        k = np.arange(n)
        assert np.array_equal(cont.nodes[-k % n], np.conj(cont.nodes))
        assert np.array_equal(cont.weights[-k % n], -np.conj(cont.weights))
        if n % 2 == 0:
            assert np.array_equal(cont.nodes[(k + n // 2) % n], -cont.nodes)
            assert np.array_equal(cont.weights[(k + n // 2) % n],
                                  -cont.weights)
        t = 2.0 * np.pi * k / n
        assert np.allclose(cont.nodes, 1.4 * np.cos(t) + 0.35j * np.sin(t),
                           rtol=0.0, atol=4e-15)

    def test_pole_outside_gives_zero(self):
        cont = Contour.ellipse(1.0, 0.5, 128)
        val = np.sum(cont.weights / (cont.nodes - 3.0))
        assert abs(val) < 1e-12


def _mirror_kernel(x, y):
    """Complex, with M(-x, -y) = M(x, y) and no symmetry in x or y alone."""
    return np.exp(-(x - 0.5 * y) ** 2) + x * y ** 3 \
        + 1j * np.sin(x) * np.sin(2.0 * y)


def _mirror_case(n):
    """n negation-closed nodes in mirrored order (0 among them for odd n),
    even weights, and M(x_i, x_j) w_j on them, dense and folded."""
    rng = np.random.default_rng(n)
    pos = np.sort(rng.uniform(0.1, 2.0, n // 2))
    nodes = np.concatenate([-pos[::-1], [0.0] * (n % 2), pos])
    weights = np.abs(nodes) + 0.3
    x, w = upper_half(nodes, weights)
    fold = MirrorFold.from_blocks(_mirror_kernel(x[:, None], x[None, :]) * w,
                                  _mirror_kernel(x[:, None], -x[None, :]) * w)
    dense = _mirror_kernel(nodes[:, None], nodes[None, :]) * weights
    return nodes, dense, fold


class TestMirrorFold:
    @pytest.mark.parametrize("n", [10, 11])
    def test_matches_dense_product(self, n):
        nodes, dense, fold = _mirror_case(n)
        rng = np.random.default_rng(3)
        for v in (rng.standard_normal(n),
                  rng.standard_normal(n) + 1j * rng.standard_normal(n)):
            ref = dense @ v
            assert np.max(np.abs(fold @ v - ref)) \
                <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [10, 11])
    def test_parity_exact(self, n):
        nodes, _, fold = _mirror_case(n)
        even, odd = fold @ np.cos(nodes), fold @ nodes ** 3
        assert np.array_equal(even[::-1], even)
        assert np.array_equal(odd[::-1], -odd)

    def test_unfold_even(self):
        # at odd n the middle node, 0, is its own image and appears once
        assert np.array_equal(unfold_even(np.array([0.0, 1.0, 2.0]), 5),
                              [2.0, 1.0, 0.0, 1.0, 2.0])
        assert np.array_equal(unfold_even(np.array([1.0, 2.0, 3.0]), 6),
                              [3.0, 2.0, 1.0, 1.0, 2.0, 3.0])


class TestNystrom:
    def test_constant_kernel_closed_form(self):
        # f - (1/2pi) int_a^b f dy = 1 has the constant solution
        a, b = -1.0, 1.0
        grid = composite_grid([a, b], 24)
        one = lambda x: np.ones_like(np.asarray(x, dtype=float))
        kern = lambda x, y: np.ones_like(x * y)
        sol = nystrom_solve(kern, grid, nystrom_factorize(kern, grid), one)
        expected = 1.0 / (1.0 - (b - a) / (2.0 * np.pi))
        assert np.max(np.abs(sol.values - expected)) < 1e-12
        # off-grid evaluation via the natural Nystrom formula
        assert abs(sol(0.123) - expected) < 1e-12

    def test_singular_operator_refused(self):
        # (1/2pi) * pi * int_{-1}^{1} dy = 1: I - K W / 2pi kills constants
        grid = composite_grid([-1.0, 0.0, 1.0], 8)
        kern = lambda x, y: np.full(np.broadcast(x, y).shape, np.pi)
        with pytest.raises(NumericsError):
            nystrom_factorize(kern, grid)

    @pytest.mark.parametrize("ratio", [0.01, 1.0, 16.0])
    def test_condition_number_from_blocks(self, ratio):
        # the refusal reads the full operator's exact 1-norm condition
        # number, assembled from the even and odd blocks
        c = 1.0 / np.sqrt(ratio)
        grid = build_ground_state(ModelParams(c=c, h=1.0)).grid
        kern = lambda x, y: kernel(x - y, c)
        lam = grid.nodes
        dense = np.eye(grid.size) - (1.0 / (2.0 * np.pi)) * (
            kern(lam[:, None], lam[None, :]) * grid.weights)
        got = nystrom_factorize(kern, grid).cond
        assert abs(got - np.linalg.cond(dense, 1)) <= 1e-10 * got

    @pytest.mark.parametrize("grid", [
        composite_grid([0.0, 1.0], 8),          # not mirror-symmetric
        composite_grid([-1.0, 0.2, 1.0], 8),    # mirrored size, not nodes
        composite_grid([-1.0, 1.0], 7),         # odd size
    ], ids=["shifted", "asymmetric-panels", "odd-size"])
    def test_grid_without_parity_refused(self, grid):
        kern = lambda x, y: np.cos(x) * np.cos(y)
        with pytest.raises(ValueError, match="mirror"):
            nystrom_factorize(kern, grid)

    def test_separable_kernel(self):
        # K(x,y) = cos x cos y: solution f = 1 + c cos x with c from the
        # projected scalar equation
        grid = composite_grid([-1.0, 1.0], 32)
        one = lambda x: np.ones_like(np.asarray(x, dtype=float))
        kern = lambda x, y: np.cos(x) * np.cos(y)
        sol = nystrom_solve(kern, grid, nystrom_factorize(kern, grid), one)
        i_c = 2.0 * np.sin(1.0)                       # int cos
        i_cc = 1.0 + 0.5 * np.sin(2.0)                # int cos^2
        c = (i_c / (2.0 * np.pi)) / (1.0 - i_cc / (2.0 * np.pi))
        assert np.max(np.abs(sol.values - (1.0 + c * np.cos(grid.nodes)))) \
            < 1e-12


class TestFredholm:
    def test_separable_determinant(self):
        # det(I + p uv^T) = 1 + p int u v
        grid = composite_grid([0.0, 1.0], 24)
        x = grid.nodes
        kern = np.exp(x)[:, None] * np.sin(np.pi * x)[None, :]
        p = 0.37
        det = np.exp(fredholm_logdet(kern, grid, p))
        exact = 1.0 + p * np.sum(grid.weights * np.exp(grid.nodes)
                                 * np.sin(np.pi * grid.nodes))
        assert abs(det - exact) < 1e-12

    def test_logdet_consistency(self):
        grid = composite_grid([-1.0, 1.0], 20)
        x = grid.nodes
        kern = 1.0 / ((x[:, None] - x[None, :]) ** 2 + 4.0)
        det = np.linalg.det(np.eye(x.size) + 0.5 * kern
                            * grid.weights[None, :])
        logdet = fredholm_logdet(kern, grid, 0.5)
        assert abs(np.exp(logdet) - det) < 1e-12 * abs(det)

    def test_contour_determinant_of_analytic_kernel(self):
        # analytic kernel integrates to zero around a closed contour, so
        # every trace power vanishes and the determinant is 1
        cont = Contour.ellipse(1.5, 0.7, 96)
        kern = np.broadcast_to(np.exp(-cont.nodes), (cont.nodes.size,) * 2)
        assert abs(np.exp(fredholm_logdet(kern, cont, 0.8)) - 1.0) < 1e-12

    def test_held_kernel_array_unchanged(self):
        # the caller keeps its kernel matrix
        grid = composite_grid([0.0, 1.0], 12)
        x = grid.nodes
        held = np.exp(-np.abs(x[:, None] - x[None, :])) + 0.2j
        before = held.copy()
        fredholm_logdet(held, grid, 0.6 - 0.1j)
        assert np.array_equal(held, before)

    def test_nonfinite_kernel_raises(self):
        grid = composite_grid([0.0, 1.0], 8)
        kern = np.ones((grid.size, grid.size))
        np.fill_diagonal(kern, np.inf)
        with pytest.raises(NumericsError):
            fredholm_logdet(kern, grid, 1.0)

    @pytest.mark.parametrize("n", [7, 8])
    def test_real_form_of_conjugation_symmetric_matrix(self, n):
        # A[-j, -k] = conj(A[j, k]) on the index pairing of an n-node
        # ellipse: node 0 (and n/2 for even n) real, the rest in pairs
        rng = np.random.default_rng(n)
        m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        flip = -np.arange(n) % n
        a = 0.5 * (m + np.conj(m[np.ix_(flip, flip)]))
        k = np.arange(1, (n + 1) // 2)
        real = np.array([0] if n % 2 else [0, n // 2])
        pairing = ConjugatePairing(real, np.stack([k, n - k], axis=1))
        det = np.linalg.det(np.eye(n) + a)
        assert abs(det.imag) <= 1e-14 * abs(det)
        combined = pairing.columns(a)[pairing.rows]
        assert abs(pairing.logabsdet(combined) - np.log(abs(det))) <= 1e-14
        combined[0, 0] = np.nan
        with pytest.raises(NumericsError):
            pairing.logabsdet(combined)

    @pytest.mark.parametrize("real, pairs", [
        ([0, 4], [[1, 7], [2, 6], [3, 5]]),   # the 8-node ellipse's pairing
        ([5], [[3, 0], [6, 2], [1, 4]]),      # unordered, not contiguous
    ])
    def test_columns_bitwise_equal_to_stacked(self, real, pairs):
        rng = np.random.default_rng(len(real))
        m = rng.normal(size=(5, 8)) + 1j * rng.normal(size=(5, 8))
        pairing = ConjugatePairing(np.array(real), np.array(pairs))
        a, b = m[:, pairing.pairs[:, 0]], m[:, pairing.pairs[:, 1]]
        stacked = np.hstack([m[:, pairing.real], a + b, 1j * (a - b)])
        for rows in (m, m[:1]):
            out = pairing.columns(rows)
            assert out.tobytes() == stacked[:len(rows)].tobytes()


class TestCauchyTransforms:
    def _unit(self, n=24):
        grid = composite_grid([-1.0, 1.0], n)
        return SampledFunction(grid, np.ones(grid.size))

    def test_constant_closed_form_far(self):
        f = self._unit()
        om = 2.0 + 1.5j
        exact = np.log(1.0 - om) - np.log(-1.0 - om)
        assert abs(cauchy_transform(f, om) - exact) < 1e-13

    def test_constant_closed_form_near_edge(self):
        f = self._unit(32)
        om = 1.0 + 1e-3j                      # hugs the right endpoint
        exact = np.log(1.0 - om) - np.log(-1.0 - om)
        assert abs(cauchy_transform(f, om) - exact) < 1e-10

    def test_on_interval_raises(self):
        with pytest.raises(NumericsError):
            cauchy_transform(self._unit(), 0.5)

    def _smooth(self, n=24):
        grid = composite_grid([-1.0, 0.0, 1.0], n)
        return SampledFunction(grid, np.cos(grid.nodes) + 0.3j * grid.nodes)

    @pytest.mark.parametrize("points", [
        [2.0 + 1.5j, -3.0 - 0.5j, 0.1 + 4.0j],            # far
        [1.0 + 1e-3j, -1.0 - 1e-3j, 1.02, -1.01 + 0.01j],  # near an edge
        [2.0 + 1.5j, 1.0 + 1e-3j, 0.3 + 0.05j, -1.5],      # mixed
    ])
    def test_vectorised_equals_scalar(self, points):
        f = self._smooth()
        om = np.array(points, dtype=complex)
        vec = cauchy_transform(f, om)
        scalar = np.array([cauchy_transform(f, p) for p in om])
        assert vec.shape == om.shape
        assert np.all(np.abs(vec - scalar) <= 1e-14 * np.abs(scalar))

    @pytest.mark.parametrize("imaginary", [False, True])
    def test_bitwise_equal_to_subtracted_formula(self, imaginary):
        # far points drop the subtraction of an exact 0 and the closed-form
        # term it multiplies; each entry must still equal the subtracted
        # formula bit for bit, down to the sign of a zero part, which a
        # purely imaginary f gives at real omega
        f = self._smooth()
        if imaginary:
            f = SampledFunction(f.grid, 1j * np.cos(f.nodes))
        a, b = f.grid.a, f.grid.b
        om = np.array([2.0 + 1.5j, 1.0 + 1e-3j, -1.5, 0.3 + 0.05j,
                       0.1 + 4.0j, -1.01 + 0.01j, 3.0, 1.1 + 0.1j])
        near = np.array([False, True, False, True, False, True, False, True])
        f_near = np.zeros(om.shape, dtype=complex)
        f_near[near] = f(np.clip(om.real[near], a, b))
        ref = (np.sum(f.weights * (f.values - f_near[:, None])
                      / (f.nodes - om[:, None]), axis=1)
               + f_near * (np.log(b - om) - np.log(a - om)))
        assert cauchy_transform(f, om).tobytes() == ref.tobytes()
        # a far entry does not depend on the near points beside it
        assert cauchy_transform(f, om[~near]).tobytes() == ref[~near].tobytes()

    @pytest.mark.parametrize("bad", [
        complex(np.nan, 0.0), complex(0.3, np.nan), complex(np.inf, 0.0),
        complex(0.0, np.inf), complex(-np.inf, np.inf)])
    def test_non_finite_point_raises(self, bad):
        # a NaN point gave NaN and an infinite one 0, with no refusal; the
        # finite points beside it do not hide it
        f = self._smooth()
        with pytest.raises(NumericsError, match="non-finite"):
            cauchy_transform(f, bad)
        with pytest.raises(NumericsError, match="non-finite"):
            cauchy_transform(f, np.array([2.0 + 1.5j, bad, 1.0 + 1e-3j]))

    def test_vectorised_keeps_shape(self):
        f = self._smooth()
        om = np.array([[2.0 + 1.5j, 1.0 + 1e-3j], [0.3 + 0.05j, -1.5]])
        out = cauchy_transform(f, om)
        assert out.shape == (2, 2)
        assert np.array_equal(out.reshape(-1),
                              cauchy_transform(f, om.reshape(-1)))

    def test_vectorised_on_interval_raises(self):
        with pytest.raises(NumericsError):
            cauchy_transform(self._smooth(), np.array([2.0 + 1.0j, 0.5]))

    def test_line_transform_near_interior(self):
        f = self._unit(32)
        om = 0.2 + 1e-4j                      # just above the interior
        exact = np.log(1.0 - om) - np.log(-1.0 - om)
        assert abs(cauchy_transform(f, om) - exact) < 1e-10

    def test_linear_near_interior(self):
        # omega hangs over the interior, so the subtraction has to be made
        # at Re omega for the remaining quadrature to stay regular
        grid = composite_grid([-1.0, 0.0, 1.0], 48)
        f = SampledFunction(grid, grid.nodes + 1.0)
        om = 0.3 + 0.05j
        log_ratio = np.log(1.0 - om) - np.log(-1.0 - om)
        exact = 2.0 + (om + 1.0) * log_ratio
        assert abs(cauchy_transform(f, om) - exact) < 2e-5
