"""Zero-temperature solves: parameter validation, strong-coupling anchors,
pinned benchmark scalars, structural symmetries and the boundary search."""

import dataclasses
from functools import lru_cache

import numpy as np
import pytest
from scipy.optimize import brentq

from bosegas import groundstate
from bosegas.groundstate import (FERMI_NODES, ModelParams,
                                 build_ground_state, kernel, kernel_block,
                                 solve_fermi_boundary)
from bosegas.numerics import (NumericsError, ParityInverse, composite_grid,
                              nystrom_factorize, nystrom_solve)


class TestModelParams:
    def test_bad_coupling(self):
        with pytest.raises(ValueError):
            ModelParams(c=0.0, h=1.0)
        with pytest.raises(ValueError):
            ModelParams(c=-1.0, h=1.0)

    def test_bad_chemical_potential(self):
        with pytest.raises(ValueError):
            ModelParams(c=1.0, h=0.0)

    def test_negative_temperature(self):
        with pytest.raises(ValueError):
            ModelParams(c=1.0, h=1.0, T=-0.1)

    @pytest.mark.parametrize("field", ["c", "h", "T", "alpha"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            ModelParams(**{"c": 1.0, "h": 1.0, "T": 0.1, field: value})


class TestKernel:
    def test_lorentzian(self):
        assert kernel(0.0, 2.0) == 1.0
        assert abs(kernel(1.0, 1.0) - 1.0) < 1e-15
        # even and integrable to 2 pi over the whole line
        assert kernel(0.7, 1.3) == kernel(-0.7, 1.3)


def _mix(rng, n, complex_):
    x = rng.standard_normal(n)
    return x + 0.1j * rng.standard_normal(n) if complex_ else x


class TestWeightedKernel:
    """The quadrature matrix as the T = 0 path forms it, the one-buffer
    kernel block times the weights, against the broadcast expression; the
    block takes the dtype of rows and columns, not of the rows alone."""

    @pytest.mark.parametrize("rows_c,cols_c,weights_c", [
        (False, False, False),   # real grid (Yang-Yang)
        (True, True, True),      # deformed contour (u)
        (True, False, False),    # contour rows, real grid (eps_at)
        (False, False, True),    # real rows, complex weights
    ])
    def test_matches_broadcast_kernel(self, rows_c, cols_c, weights_c):
        rng = np.random.default_rng(7)
        r, s, w = (_mix(rng, n, f) for n, f in
                   ((9, rows_c), (11, cols_c), (11, weights_c)))
        ref = kernel(np.subtract.outer(r, s), 0.8) * w
        got = kernel_block(r, s, 0.8) * w
        assert got.shape == ref.shape and got.dtype == ref.dtype
        np.testing.assert_allclose(got, ref, rtol=1e-15, atol=0.0)

    def test_real_inputs_bit_identical(self):
        x = np.linspace(-2.0, 2.0, 13)
        w = np.full(13, 0.3)
        assert np.array_equal(kernel_block(x, x, 1.1) * w,
                              kernel(x[:, None] - x[None, :], 1.1) * w)


class TestFreeFermionLimit:
    """At c = 1e6 the kernel decouples: eps0 -> lambda^2 - h, Z -> 1."""

    def test_boundary(self, gs_free):
        assert abs(gs_free.q - 1.0) < 1e-3

    def test_dressed_charge(self, gs_free):
        assert abs(gs_free.Zq - 1.0) < 1e-3

    def test_velocity(self, gs_free):
        assert abs(gs_free.v0 - 2.0) < 2e-3

    def test_density(self, gs_free):
        assert abs(gs_free.D - 1.0 / np.pi) < 1e-3

    def test_bare_dispersion(self, gs_free):
        lam = np.linspace(-0.9, 0.9, 7)
        assert np.max(np.abs(gs_free.eps0(lam) - (lam ** 2 - 1.0))) < 1e-3


class TestBenchmarkScalars:
    """Pinned values at c = 1, h = 1, stable under grid doubling."""

    def test_boundary(self, gs):
        assert abs(gs.q - 1.1794505693979693) < 1e-10

    def test_dressed_charge(self, gs):
        assert abs(gs.Zq - 1.7310611572837569) < 1e-10

    def test_velocity(self, gs):
        assert abs(gs.v0 - 1.5557302624186644) < 1e-10

    def test_density(self, gs):
        assert abs(gs.D - 0.741957884748637) < 1e-10

    def test_edge_slope(self, gs):
        assert abs(gs.eps0_prime_q - 2.693064228483816) < 1e-9

    def test_fermi_momentum(self, gs):
        assert abs(gs.kF - np.pi * gs.D) < 1e-14


class TestStructure:
    def test_energy_vanishes_at_edges(self, gs):
        assert abs(gs.eps0(gs.q)) < 1e-10
        assert abs(gs.eps0(-gs.q)) < 1e-10

    def test_energy_negative_inside(self, gs):
        lam = np.linspace(-0.95 * gs.q, 0.95 * gs.q, 21)
        assert np.all(np.real(gs.eps0(lam)) < 0)

    def test_charge_bounds(self, gs):
        # dressed charge exceeds 1 everywhere on the Fermi interval
        assert np.min(np.real(gs.Z.values)) >= 1.0

    def test_even_symmetry(self, gs):
        lam = np.array([0.3, 0.7, 1.1])
        assert np.max(np.abs(gs.eps0(lam) - gs.eps0(-lam))) < 1e-11
        assert np.max(np.abs(gs.Z(lam) - gs.Z(-lam))) < 1e-11

    def test_resolvent_mirror(self, gs):
        # R(-lambda, +q) = R(lambda, -q) by the evenness of the kernel
        lam = np.array([0.2, 0.8, 1.0])
        assert np.max(np.abs(gs.R_plus(-lam) - gs.R_minus(lam))) < 1e-11

    def test_density_function(self, gs):
        # D = Re int Z / 2 pi over the Fermi interval
        assert abs(np.real(gs.Z.integral()) / (2.0 * np.pi) - gs.D) < 1e-13

    def test_boundary_grows_with_h(self):
        q2, _ = solve_fermi_boundary(ModelParams(c=1.0, h=2.0), FERMI_NODES)
        q1, _ = solve_fermi_boundary(ModelParams(c=1.0, h=1.0), FERMI_NODES)
        assert q2 > q1


@pytest.mark.parametrize("ratio", [1.0, 4.0])
def test_spectral_derivatives_of_charge(ratio):
    # Z' and Z'' on the nodes, exact to quadrature accuracy: differentiate
    # the kernel under Z = 1 + (1/2pi) int K Z
    c = 1.0 / np.sqrt(ratio)
    gs = build_ground_state(ModelParams(c=c, h=1.0))
    lam, w, z = gs.grid.nodes, gs.grid.weights, gs.Z.values
    d = lam[:, None] - lam[None, :]
    k1 = -4.0 * c * d / (d * d + c * c) ** 2
    k2 = 4.0 * c * (3.0 * d * d - c * c) / (d * d + c * c) ** 3
    zp, zpp = (k @ (w * z) / (2.0 * np.pi) for k in (k1, k2))
    der = gs.grid.derivative(z)
    der2 = gs.grid.derivative(der)
    assert np.max(np.abs(der - zp)) <= 1e-11 * np.max(np.abs(zp))
    assert np.max(np.abs(der2 - zpp)) <= 1e-8 * np.max(np.abs(zpp))


def _dense_ground_state(c, h, n_nodes):
    """q, the grid, the five functions on its nodes (rows: eps0, eps0', Z,
    R(., q), R(., -q)) and their values at q, by the same Newton search
    with dense solves of the full n_nodes system."""
    q = np.sqrt(h)
    for _ in range(50):
        grid = composite_grid([-q, 0.0, q], n_nodes // 2)
        lam, w = grid.nodes, grid.weights
        kw = kernel(lam[:, None] - lam[None, :], c) / (2.0 * np.pi) * w
        drive = lambda x: np.stack([x * x - h, 2.0 * x, np.ones_like(x),
                                    kernel(x - q, c) / (2.0 * np.pi),
                                    kernel(x + q, c) / (2.0 * np.pi)])
        sols = np.linalg.solve(np.eye(lam.size) - kw, drive(lam).T).T
        row = kernel(q - lam, c) / (2.0 * np.pi) * w
        at_q = drive(np.array(q)) + sols @ row
        step = at_q[0] / (at_q[1] + 2.0 * at_q[0] * at_q[4])
        if abs(step) <= 1e-13 * q:
            return q, grid, sols, at_q
        q -= step
    raise AssertionError("dense Newton search did not converge")


class TestParitySplit:
    """The even/odd block solve against dense solves of the full system,
    and the exact parity it gives."""

    NAMES = ("eps0", "eps0_prime", "Z", "R_plus", "R_minus")

    @pytest.mark.parametrize("n_nodes", [96, 192])
    @pytest.mark.parametrize("ratio", [0.01, 0.1, 1.0, 4.0, 16.0])
    def test_matches_dense_solve(self, ratio, n_nodes):
        c, h = 1.0 / np.sqrt(ratio), 1.0
        gs = build_ground_state(ModelParams(c=c, h=h), n_nodes=n_nodes)
        q, grid, sols, at_q = _dense_ground_state(c, h, n_nodes)
        ref = {"q": q, "Zq": at_q[2], "v0": at_q[1] / at_q[2],
               "D": grid.weights @ sols[2] / (2.0 * np.pi)}
        for name, value in ref.items():
            assert abs(getattr(gs, name) - value) <= 1e-12 * abs(value), name
        for name, values in zip(self.NAMES, sols):
            got = getattr(gs, name).values
            assert np.max(np.abs(got - values)) <= 1e-12 * np.max(
                np.abs(values)), name

    @pytest.mark.parametrize("ratio", [0.01, 1.0, 16.0])
    def test_exact_parity(self, ratio):
        gs = build_ground_state(ModelParams(c=1.0 / np.sqrt(ratio), h=1.0))
        assert np.array_equal(gs.eps0.values, gs.eps0.values[::-1])
        assert np.array_equal(gs.Z.values, gs.Z.values[::-1])
        assert np.array_equal(gs.eps0_prime.values,
                              -gs.eps0_prime.values[::-1])
        assert np.array_equal(gs.R_minus.values, gs.R_plus.values[::-1])

    @pytest.mark.parametrize("name, drive", [
        ("eps0_prime", lambda lam: 2.0 * lam),
        ("Z", lambda lam: np.ones_like(lam)),
    ], ids=["eps0_prime", "Z"])
    def test_block_error_refused(self, gs, name, drive):
        # an odd solve through the even block, or an even one through the
        # odd block, fails the residual check of the unfolded equations
        kern = lambda x, y: kernel(x - y, gs.params.c)
        inv = nystrom_factorize(kern, gs.grid)
        swapped = ParityInverse(inv.odd, inv.even, inv.cond)
        wrong = nystrom_solve(kern, gs.grid, swapped, drive)
        with pytest.raises(ArithmeticError, match="residual"):
            dataclasses.replace(gs, **{name: wrong})._check()


def _edge_energy(c, h, q, n_nodes):
    """eps0(q|q) from its own factorization on [-q, q]."""
    grid = composite_grid([-q, 0.0, q], n_nodes // 2)
    kern = lambda x, y: 2.0 * c / ((x - y) ** 2 + c * c)
    eps0 = nystrom_solve(kern, grid, nystrom_factorize(kern, grid),
                         lambda lam: lam ** 2 - h)
    return float(np.real(eps0(q)))


BRACKET_CASES = [(ratio, h, n) for n in (96, 192) for ratio in
                 (1e-4, 0.01, 1.0, 16.0) for h in (0.25, 4.0)]
BRACKET_IDS = [f"{r}-{h}" if n == 96 else f"{r}-{h}-{n}"
               for r, h, n in BRACKET_CASES]
SWEEP_RATIOS = np.geomspace(1e-6, 1e4, 61)


@lru_cache(maxsize=None)
def _sweep(n_nodes):
    """Per h/c^2 of SWEEP_RATIOS, at h = 1: the boundary q on n_nodes or
    the message of the NumericsError that refused it."""
    out = []
    for ratio in SWEEP_RATIOS:
        try:
            q, _ = solve_fermi_boundary(
                ModelParams(c=1.0 / np.sqrt(ratio), h=1.0), n_nodes)
        except NumericsError as exc:
            q = str(exc)
        out.append(q)
    return out


class TestFermiBoundary:
    """Newton search for the boundary and its resolution guard."""

    @pytest.mark.parametrize("ratio, h, n_nodes", BRACKET_CASES,
                             ids=BRACKET_IDS)
    def test_matches_bracketed_root(self, ratio, h, n_nodes):
        c = np.sqrt(h / ratio)
        q, _ = solve_fermi_boundary(ModelParams(c=c, h=h), n_nodes)
        sq = np.sqrt(h)
        ref = brentq(lambda x: _edge_energy(c, h, x, n_nodes), sq,
                     10.0 * sq, xtol=1e-15, rtol=1e-14)
        assert abs(q - ref) <= 1e-11 * ref

    @pytest.mark.parametrize("n_nodes", [96, 192, 400, 800])
    def test_sweep_returns_or_refuses_unresolved(self, n_nodes):
        # 61 h/c^2 from 1e-6 to 1e4: the search returns or refuses a grid
        # it cannot resolve, and nothing else; anything but a NumericsError
        # propagates.  The accept set grows with n and is the one of the
        # single full-grid search from sqrt(h), and every accepted q
        # agrees with the 800-node one
        fine = _sweep(800)
        got = _sweep(n_nodes)
        for ratio, q, ref in zip(SWEEP_RATIOS, got, fine):
            if isinstance(q, str):
                assert "unresolved" in q, (ratio, q)
            else:
                assert abs(q - ref) <= 1e-11 * ref, ratio
        accepted = sum(not isinstance(q, str) for q in got)
        assert accepted == {96: 45, 192: 49, 400: 52, 800: 56}[n_nodes]

    @pytest.mark.parametrize("n_nodes", [2, 4, 6, 8, 16])
    def test_unresolved_at_sqrt_h_refused_before_newton(self, monkeypatch,
                                                        n_nodes):
        # at c = h = 1 even the lower bound sqrt(h) of q is unresolved on
        # these grids, so no operator is factorized
        def refuse(kern, grid):
            raise AssertionError("factorized before the resolution check")
        monkeypatch.setattr(groundstate, "nystrom_factorize", refuse)
        with pytest.raises(NumericsError, match="unresolved at q/c >="):
            solve_fermi_boundary(ModelParams(c=1.0, h=1.0), n_nodes)

    def test_full_grid_factorized_at_most_twice(self, monkeypatch):
        # over the equation-of-state range h/c^2 in [0.01, 16] the coarse
        # root is good to the stop rule, so the full grid takes one or two
        # Newton iterates; the coarse pass adds its own, smaller grids
        sizes = []
        factorize = groundstate.nystrom_factorize
        def counting(kern, grid):
            sizes.append(grid.size)
            return factorize(kern, grid)
        monkeypatch.setattr(groundstate, "nystrom_factorize", counting)
        for ratio in np.geomspace(0.01, 16.0, 13):
            for h in (0.25, 4.0):
                sizes.clear()
                solve_fermi_boundary(ModelParams(c=np.sqrt(h / ratio), h=h),
                                     FERMI_NODES)
                full = sizes.count(FERMI_NODES)
                assert 1 <= full <= 2, (ratio, h, sizes)
                assert len(sizes) > full and max(sizes) == FERMI_NODES

    def test_weak_coupling_point_converges(self):
        # h/c^2 = 25: the old fixed bracket [0.1, 10] sqrt(h) failed here
        params = ModelParams(c=0.02, h=0.01)
        coarse = build_ground_state(params)
        fine = build_ground_state(params, n_nodes=192)
        for name in ("q", "Zq", "D"):
            a, b = getattr(coarse, name), getattr(fine, name)
            assert abs(a - b) <= 1e-11 * abs(b), name

    # at (0.02, 1) the unresolved Newton iterates leave q > 0
    @pytest.mark.parametrize("c, h", [(0.5, 100.0), (0.1, 1.0), (0.02, 1.0)])
    def test_unresolved_grid_refuses(self, c, h):
        with pytest.raises(NumericsError):
            build_ground_state(ModelParams(c=c, h=h))

    def test_finer_grid_resolves(self):
        gs = build_ground_state(ModelParams(c=0.1, h=1.0), n_nodes=192)
        assert gs.Zq > 1.0

    def test_iteration_cap(self, monkeypatch):
        # E(sqrt h) < 0, so the search always takes at least two iterates
        monkeypatch.setattr(groundstate, "_MAX_NEWTON", 1)
        with pytest.raises(NumericsError):
            solve_fermi_boundary(ModelParams(c=1.0, h=1.0), FERMI_NODES)
