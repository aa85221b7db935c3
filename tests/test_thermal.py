"""Finite-temperature solve: stable logarithms, fixed-point convergence
(against a plain half-damped reference iteration), the exact mirror parity
the folded solve rests on (against a full-grid solve) and the
low-temperature law."""

import itertools
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bosegas.thermal
from bosegas.cli import main
from bosegas.excitation import excitation_contour, solve_u
from bosegas.groundstate import (ModelParams, build_ground_state, kernel,
                                 kernel_block)
from bosegas.numerics import (MirrorFold, NumericsError, unfold_even,
                              upper_half)
from bosegas.thermal import (_fixed_point, continuation, mirror_fold,
                             solve_yang_yang, stable_log1pexp, thermal_grid)
from bosegas.verification import BENCHMARK_CLASS, eps2_at


def damped_fixed_point(bare, start, kmat, weights, T, tol):
    """Half-damped Picard iteration for the shared fixed point, with the
    same signature, stopping test and returned iterate as _fixed_point;
    slow but plain, so it serves as the reference.  It ignores ``start``
    and starts from ``bare``, so it shares no starting point with the
    solve it checks."""
    f = bare.copy()
    for it in range(1, 20001):
        g = bare - (T / (2.0 * np.pi)) * (
            kmat @ (weights * stable_log1pexp(f / T)))
        residual = float(np.max(np.abs(g - f)))
        if residual <= tol:
            return g, stable_log1pexp(g / T), it, residual
        f = 0.5 * (f + g)
    raise NumericsError("reference not converged in 20000 iterations")


def masked_log1pexp(x):
    """log(1 + e^{-x}) by masked scatters into each half-plane's branch:
    the reference ``stable_log1pexp`` must match bit for bit."""
    x = np.asarray(x)
    pos = np.real(x) > 0
    out = np.empty_like(x, dtype=complex if np.iscomplexobj(x) else float)
    out[pos] = np.log1p(np.exp(-x[pos]))
    out[~pos] = -x[~pos] + np.log1p(np.exp(x[~pos]))
    return out


def coupling_params(ratio, t_over_h):
    """Parameters at h = 1, h/c^2 = ratio and T/h = t_over_h."""
    return ModelParams(c=np.sqrt(1.0 / ratio), h=1.0, T=t_over_h)


class TestStableLog1pExp:
    @given(st.floats(min_value=-30.0, max_value=30.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_naive(self, x):
        naive = np.log1p(np.exp(-x))
        assert abs(stable_log1pexp(np.array(x)) - naive) \
            <= 1e-14 * (1.0 + abs(naive))

    def test_deep_tails(self):
        assert stable_log1pexp(np.array(700.0)) < 1e-300 * 1e10
        assert abs(stable_log1pexp(np.array(-700.0)) - 700.0) < 1e-12

    def test_complex_branch(self):
        z = np.array(2.0 + 0.3j)
        assert abs(stable_log1pexp(z) - np.log(1.0 + np.exp(-z))) < 1e-15
        z = np.array(-2.0 + 0.3j)
        assert abs(stable_log1pexp(z) - np.log(1.0 + np.exp(-z))) < 1e-14

    def test_monotone_decreasing(self):
        x = np.linspace(-5.0, 5.0, 101)
        assert np.all(np.diff(stable_log1pexp(x)) < 0)

    # real and imaginary parts, finite (with the tails and ±0) or not
    FINITE = (np.concatenate([[0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300,
                               745.2, -745.2, 1e308, -1e308],
                              np.linspace(-800.0, 800.0, 4001)]),
              np.array([0.0, -0.0, 1e-300, 0.3, -2.5, np.pi, -np.pi, 1e308]))
    NON_FINITE = (np.array([np.inf, -np.inf, np.nan, 0.0, -1.0, 700.0]),
                  np.array([0.0, -0.0, 0.3, np.inf, -np.inf, np.nan]))

    @pytest.mark.parametrize("finite", [True, False])
    def test_bitwise_masked_form(self, finite):
        reals, imags = self.FINITE if finite else self.NON_FINITE
        grid = np.empty((reals.size, imags.size), dtype=complex)
        grid.real, grid.imag = reals[:, None], imags
        inputs = [reals, grid.ravel()]
        with warnings.catch_warnings():
            warnings.simplefilter("error" if finite else "ignore")
            for x in inputs:
                out, ref = stable_log1pexp(x), masked_log1pexp(x)
                assert out.dtype == ref.dtype
                # numpy's complex loops set a NaN's sign by array length
                # (the masked form alone gives +NaN at 3 items, -NaN at 4),
                # so a NaN part must stay NaN and every other part match
                parts, ref_parts = out.view(float), ref.view(float)
                nan = np.isnan(ref_parts)
                assert np.array_equal(np.isnan(parts), nan)
                assert np.array_equal(parts[~nan].view(np.uint8),
                                      ref_parts[~nan].view(np.uint8))


@pytest.fixture(scope="module")
def thermal(gs):
    return solve_yang_yang(ModelParams(c=1.0, h=1.0, T=0.02), gs)


class TestYangYangSolve:
    def test_requires_positive_temperature(self, gs):
        with pytest.raises(ValueError):
            solve_yang_yang(ModelParams(c=1.0, h=1.0, T=0.0), gs)

    def test_converged(self, thermal):
        assert thermal.residual <= 1e-12
        assert thermal.iterations <= 30

    def test_eps0_start_saves_iterations(self, gs, monkeypatch):
        # the T -> 0 limit eps0 starts the solve: 6 iterations at c = h = 1,
        # T = 0.01, against 9 from the bare lambda^2 - h, to the same eps
        params = ModelParams(c=1.0, h=1.0, T=0.01)
        fast = solve_yang_yang(params, gs)
        fixed_point = bosegas.thermal._fixed_point
        monkeypatch.setattr(
            bosegas.thermal, "_fixed_point",
            lambda bare, start, *rest: fixed_point(bare, bare, *rest))
        ref = solve_yang_yang(params, gs)
        assert fast.iterations < ref.iterations
        scale = np.max(np.abs(ref.eps.values))
        assert np.max(np.abs(fast.eps.values - ref.eps.values)) \
            <= 1e-12 * scale

    def test_even(self, thermal):
        # exactly, on the nodes
        assert np.array_equal(thermal.eps.values[::-1], thermal.eps.values)
        assert np.array_equal(thermal.log_weight[::-1], thermal.log_weight)

    def test_tail_below_bare(self, thermal):
        # the tail integral is positive, so eps sits below the bare
        # dispersion, by an amount bounded by the slow kernel tail; read at
        # a fixed lambda past the grid's end, where the gap is 0.109
        lam = 2.70
        gap = (lam ** 2 - 1.0) - np.real(thermal.eps_at(lam))
        assert 0.0 < gap < 0.2

    def test_fixed_point_cap_raises(self):
        # f + 8 log(1 + e^{-f}) >= ln 7 + 8 ln(8/7) > -10: no real fixed point
        kmat = np.array([[16.0 * np.pi]])
        with pytest.raises(NumericsError, match="not converged"):
            _fixed_point(np.array([-10.0]), np.array([-10.0]), kmat,
                         np.ones(1), 1.0, 1e-12)

    def test_oscillating_case_converges(self):
        # f = -10 + 8 log(1 + e^{-f}) has slope about -6 at its root, where
        # the half-damped iteration oscillates; the accelerated one does not
        kmat = np.array([[-16.0 * np.pi]])
        bare = np.array([-10.0])
        f, lw, it, residual = _fixed_point(bare, bare, kmat, np.ones(1),
                                           1.0, 1e-12)
        assert residual <= 1e-12 and it < 500
        assert abs(f[0] + 10.0 - 8.0 * np.log1p(np.exp(-f[0]))) < 1e-12
        assert abs(lw[0] - np.log1p(np.exp(-f[0]))) < 1e-15

    def test_singular_gram_restarts(self, monkeypatch):
        # one node: every residual difference is collinear with the one
        # before, so the second makes the Gram matrix singular.  The
        # history restarts with a half-damped step, and the solve reaches
        # the plain iteration's root of f = 1 + 2 log(1 + e^{-f})
        singular = []
        solve = np.linalg.solve

        def spy(gram, rhs):
            try:
                return solve(gram, rhs)
            except np.linalg.LinAlgError:
                singular.append(gram.copy())
                raise

        monkeypatch.setattr(np.linalg, "solve", spy)
        bare, kmat, weights = np.array([1.0]), np.array([[-np.pi]]), \
            np.array([4.0])
        f, lw, it, residual = _fixed_point(bare, bare, kmat, weights, 1.0,
                                           1e-12)
        ref = damped_fixed_point(bare, bare, kmat, weights, 1.0, 1e-12)[0]
        assert singular and all(g.shape == (2, 2) for g in singular)
        assert residual <= 1e-12
        assert abs(f[0] - ref[0]) <= 1e-12 * abs(ref[0])


class TestAgainstDampedReference:
    @pytest.mark.parametrize("t_over_h", [0.002, 0.05])
    @pytest.mark.parametrize("ratio", [0.01, 1.0, 16.0, 25.0])
    def test_eps_matches(self, monkeypatch, ratio, t_over_h):
        params = coupling_params(ratio, t_over_h)
        gs = build_ground_state(ModelParams(c=params.c, h=params.h))
        fast = solve_yang_yang(params, gs)
        # the reference needs 40 to 355 sweeps on these inputs
        assert fast.iterations <= 30
        monkeypatch.setattr(bosegas.thermal, "_fixed_point",
                            damped_fixed_point)
        ref = solve_yang_yang(params, gs)
        scale = np.max(np.abs(ref.eps.values))
        assert np.max(np.abs(fast.eps.values - ref.eps.values)) \
            <= 1e-11 * scale

    @pytest.mark.parametrize("ratio", [0.01, 1.0, 2.0])
    def test_u_matches(self, monkeypatch, ratio):
        params = coupling_params(ratio, 0.02)
        gs = build_ground_state(ModelParams(c=params.c, h=params.h))
        thermal = solve_yang_yang(params, gs)
        fast = solve_u(params, BENCHMARK_CLASS, thermal=thermal, gs=gs)
        # the one solve step looks the fixed point up in thermal; patching
        # another binding would compare the fast solve with itself
        monkeypatch.setattr(bosegas.thermal, "_fixed_point",
                            damped_fixed_point)
        ref = solve_u(params, BENCHMARK_CLASS, thermal=thermal, gs=gs)
        assert ref.iterations > fast.iterations
        scale = np.max(np.abs(ref.u_values))
        assert np.max(np.abs(fast.u_values - ref.u_values)) <= 1e-11 * scale


@lru_cache(maxsize=None)
def ground_state_at(ratio):
    return build_ground_state(ModelParams(c=np.sqrt(1.0 / ratio), h=1.0))


PARITY_RATIOS = (0.01, 0.1, 0.5, 1.0, 2.0, 4.0, 16.0)
PARITY_T_OVER_H = (0.002, 0.005, 0.01, 0.02, 0.05)
# an edge value u1 midway in the range |Im u1| < 2 pi that has a contour
CHANNEL_U1 = -1.0j * np.pi


class TestExactParity:
    # on the unmirrored graded sequence about 1 in 4 of these grids was
    # asymmetric: the geometric sequence from +q spills past -q, and the
    # left-to-right pruning keeps a different neighbour on each side (at
    # h/c^2 = 2, T/h = 0.005 the inner panel beside -q was
    # [-1.21569, -1.21356], the one beside +q [1.21236, 1.21569])
    @pytest.mark.parametrize("ratio", PARITY_RATIOS)
    def test_grid_mirror_symmetric(self, ratio):
        gs = ground_state_at(ratio)
        for t_over_h in PARITY_T_OVER_H:
            grid = thermal_grid(coupling_params(ratio, t_over_h), gs, 16)
            assert np.array_equal(grid.nodes[::-1], -grid.nodes)
            assert np.array_equal(grid.weights[::-1], grid.weights)
            assert np.array_equal(grid.breakpoints[::-1], -grid.breakpoints)

    @pytest.mark.parametrize("ratio", PARITY_RATIOS)
    def test_excitation_contour_odd(self, ratio):
        gs = ground_state_at(ratio)
        for t_over_h in PARITY_T_OVER_H:
            thermal = solve_yang_yang(coupling_params(ratio, t_over_h), gs)
            contour = excitation_contour(thermal, CHANNEL_U1)
            assert np.any(contour.nodes.imag != 0.0)
            assert np.array_equal(contour.nodes[::-1], -contour.nodes)
            assert np.array_equal(contour.weights[::-1], contour.weights)


class TestMirrorFold:
    """The kernel on a negation-closed node set through its half-size
    blocks, against the full matrix."""

    @pytest.mark.parametrize("n_per_panel", [15, 16, 17])
    def test_excitation_contour_odd_at_any_panel_size(self, n_per_panel):
        gs = ground_state_at(2.0)
        for t_over_h in PARITY_T_OVER_H:
            thermal = solve_yang_yang(coupling_params(2.0, t_over_h), gs,
                                      n_per_panel=n_per_panel)
            contour = excitation_contour(thermal, CHANNEL_U1)
            assert np.array_equal(contour.nodes[::-1], -contour.nodes)
            assert np.array_equal(contour.weights[::-1], contour.weights)

    @pytest.mark.parametrize("n_per_panel", [15, 16])
    def test_folded_product_matches_full_matrix(self, thermal, n_per_panel):
        sol = solve_yang_yang(thermal.params, thermal.gs,
                              n_per_panel=n_per_panel)
        contour = excitation_contour(sol, CHANNEL_U1)
        nodes, weights, c = contour.nodes, contour.weights, sol.params.c
        full = kernel_block(nodes, nodes, c) * weights
        direct, swap, w = mirror_fold(nodes, weights, c)
        folded = MirrorFold.from_blocks(direct, swap)
        # the weights go into the vector, the middle one halved
        w = unfold_even(w, nodes.size)
        rng = np.random.default_rng(7)
        for v in (rng.standard_normal(nodes.size),
                  np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, nodes.size))):
            ref = full @ v
            assert np.max(np.abs(folded @ (w * v) - ref)) \
                <= 1e-13 * np.max(np.abs(ref))

    def test_even_block_is_the_yang_yang_kernel(self, thermal):
        # A + B on the half line, as solve_yang_yang folds it, with no
        # weights: those of the upper nodes come back on their own
        grid, c = thermal.grid, thermal.params.c
        direct, swap, w = mirror_fold(grid.nodes, grid.weights, c)
        x = grid.nodes[grid.size // 2:]
        ref = kernel(np.subtract.outer(x, x), c)
        ref += kernel(np.subtract.outer(x, -x), c)
        assert np.array_equal(direct + swap, ref)
        assert np.array_equal(w, grid.weights[grid.size // 2:])

    @pytest.mark.parametrize("case", ["shifted", "uneven-weights"])
    def test_unmirrored_nodes_refused(self, thermal, case):
        nodes, weights = thermal.grid.nodes, thermal.grid.weights.copy()
        if case == "shifted":
            nodes = nodes + 1e-9
        else:
            weights[0] *= 1.0 + 1e-15
        with pytest.raises(ValueError, match="mirror"):
            mirror_fold(nodes, weights, 1.0)


def assert_every_panel_live(sol):
    """The grid of ``sol`` ends at the dead level, the root of
    eps0 = 40 T; every panel holds a node with eps < 40 T, eps at the outer
    nodes is at least 20 T, and the excited contour lies over the nodes,
    its real parts equal to them bit for bit."""
    grid, dead = sol.grid, 40.0 * sol.params.T
    assert abs(sol.gs.eps0(grid.b) / dead - 1.0) <= 1e-9
    per_panel = grid.size // (grid.breakpoints.size - 1)
    assert np.all(sol.eps.values.reshape(-1, per_panel).min(axis=1) < dead)
    assert np.all(sol.eps.values[[0, -1]] >= 0.5 * dead)
    assert np.array_equal(excitation_contour(sol, CHANNEL_U1).nodes.real,
                          grid.nodes)


class TestLivePanels:
    """The thermal grid, the domain of the excited sector, is the
    mirror-closed run of its live panels: it ends where the thermal weight
    dies."""

    @pytest.mark.parametrize("ratio", PARITY_RATIOS)
    def test_mirror_closed_slice(self, ratio):
        gs = ground_state_at(ratio)
        for t_over_h in PARITY_T_OVER_H:
            sol = solve_yang_yang(coupling_params(ratio, t_over_h), gs)
            assert np.array_equal(sol.grid.nodes[::-1], -sol.grid.nodes)
            assert_every_panel_live(sol)

    def test_odd_grid_keeps_its_node_at_zero(self):
        sol = solve_yang_yang(coupling_params(1.98, 0.02),
                              ground_state_at(1.98), n_per_panel=15)
        assert_every_panel_live(sol)
        assert sol.grid.size % 2 == 1
        assert sol.grid.nodes[sol.grid.size // 2] == 0.0

    def test_one_level_for_cutoff_and_live_panels(self, gs, monkeypatch):
        # DEAD_EPS_OVER_T alone places the cutoff: at 10 the grid ends at
        # the root of eps0 = 10 T, fewer panels in.  Yang-Yang refuses to
        # solve on it (test_tail_refusal_at_the_live_ends)
        params = ModelParams(c=1.0, h=1.0, T=0.02)
        kept = thermal_grid(params, gs, 16)
        monkeypatch.setattr(bosegas.thermal, "DEAD_EPS_OVER_T", 10.0)
        cutoff = bosegas.thermal.thermal_cutoff(params, gs)
        assert abs(gs.eps0(cutoff) / (10.0 * params.T) - 1.0) <= 1e-9
        grid = thermal_grid(params, gs, 16)
        assert grid.b == cutoff
        assert grid.size < kept.size


def full_grid_solve(sol):
    """The unfolded Yang-Yang fixed point on the full grid of ``sol``."""
    params, grid = sol.params, sol.grid
    kmat = kernel_block(grid.nodes, grid.nodes, params.c)
    bare = grid.nodes ** 2 - params.h
    return _fixed_point(bare, bare, kmat, grid.weights, params.T,
                        1e-12 * max(params.h, params.T))


class TestFoldAgainstFullGrid:
    @pytest.mark.parametrize("n_per_panel", [16, 15])
    @pytest.mark.parametrize("t_over_h", [0.002, 0.05])
    @pytest.mark.parametrize("ratio", [0.01, 1.0, 16.0, 25.0])
    def test_eps_matches(self, ratio, t_over_h, n_per_panel):
        sol = solve_yang_yang(coupling_params(ratio, t_over_h),
                              ground_state_at(ratio), n_per_panel=n_per_panel)
        # an odd-sized grid has a node at 0, which is its own image
        assert sol.grid.size % 2 == 0 \
            or sol.grid.nodes[sol.grid.size // 2] == 0.0
        eps, lw, _, _ = full_grid_solve(sol)
        scale = np.max(np.abs(eps))
        assert np.max(np.abs(sol.eps.values - eps)) <= 1e-12 * scale
        assert np.max(np.abs(sol.log_weight - lw)) \
            <= 1e-12 * np.max(np.abs(lw))

    def test_odd_panel_puts_a_node_at_zero(self, thermal):
        sol = solve_yang_yang(thermal.params, thermal.gs, n_per_panel=15)
        assert sol.grid.size % 2 == 1

    def test_negation_closed_continuation(self):
        # solve_u continues eps on the upper half of the odd excited
        # contour and unfolds it; the plain continuation evaluates every
        # node.  An odd contour has a node at 0, its own image
        for n_per_panel, ratio, t_over_h in itertools.product(
                (15, 16, 17), (1.0, 1.98), (0.02, 0.005)):
            thermal = solve_yang_yang(coupling_params(ratio, t_over_h),
                                      ground_state_at(ratio),
                                      n_per_panel=n_per_panel)
            contour = excitation_contour(thermal, CHANNEL_U1)
            lam = contour.nodes
            upper, _ = upper_half(lam, contour.weights)
            folded = unfold_even(thermal.eps_at(upper), lam.size)
            ref = continuation(lam, lambda x: x ** 2 - thermal.params.h,
                               thermal.grid, thermal.log_weight,
                               thermal.params)
            assert np.max(np.abs(folded - ref)) \
                <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("T", [0.002, 0.05])
def test_weak_coupling_converges_and_survives_doubling(T):
    # h/c^2 = 100, where the half-damped iteration contracts so slowly
    # that it needs over 600 sweeps
    params = ModelParams(c=0.1, h=1.0, T=T)
    values = []
    for n_nodes, n_per_panel in ((192, 16), (384, 32)):
        gs = build_ground_state(ModelParams(c=0.1, h=1.0), n_nodes=n_nodes)
        sol = solve_yang_yang(params, gs, n_per_panel=n_per_panel)
        assert sol.residual <= 1e-12
        values.append(sol.eps_at(np.array([0.0, 0.5 * gs.q, gs.q])))
    assert np.max(np.abs(values[1] - values[0])) <= 1e-11


def assert_matches_longer_cutoff(params, gs, monkeypatch):
    """eps at 0, q/2, q and 3q/2 and the pressure (T/2pi) sum w lw on the
    grid that ends at the dead level match those on a grid one unit
    longer, to 1e-11 max(h, T)."""
    sol = solve_yang_yang(params, gs)
    cutoff = bosegas.thermal.thermal_cutoff
    monkeypatch.setattr(bosegas.thermal, "thermal_cutoff",
                        lambda params, gs: cutoff(params, gs) + 1.0)
    ref = solve_yang_yang(params, gs)
    assert ref.grid.b > sol.grid.b + 0.99
    lam = np.array([0.0, 0.5, 1.0, 1.5]) * gs.q
    pressure = [params.T / (2.0 * np.pi) * (th.grid.weights @ th.log_weight)
                for th in (sol, ref)]
    bound = 1e-11 * max(params.h, params.T)
    assert np.max(np.abs(sol.eps_at(lam) - ref.eps_at(lam))) <= bound
    assert abs(pressure[0] - pressure[1]) <= bound


@pytest.mark.parametrize("t_over_h", [0.002, 0.05])
@pytest.mark.parametrize("ratio", [0.01, 1.0, 16.0])
def test_cutoff_matches_longer_cutoff(ratio, t_over_h, monkeypatch):
    assert_matches_longer_cutoff(coupling_params(ratio, t_over_h),
                                 ground_state_at(ratio), monkeypatch)


def old_cutoff(params, gs):
    """The cutoff rule that ignored eps0: sqrt(h + 40 T) plus a margin."""
    core = np.sqrt(params.h + 40.0 * params.T)
    return core + 1.5 * min(params.c, core)


class TestWeakCouplingCutoff:
    # h/c^2 = 100, T/h = 0.002: q = 1.357 exceeds the old cutoff 1.189,
    # which truncated the grid inside the Fermi sea (eps(0) off by 0.20)
    params = ModelParams(c=0.1, h=1.0, T=0.002)

    @pytest.fixture(scope="class")
    def gs(self):
        return build_ground_state(ModelParams(c=0.1, h=1.0), n_nodes=192)

    def test_matches_longer_cutoff(self, gs, monkeypatch):
        # the cutoff sits at the root of eps0 = 40 T, beyond q
        cutoff = thermal_grid(self.params, gs, 16).b
        assert cutoff > gs.q
        assert abs(gs.eps0(cutoff) / (40.0 * self.params.T) - 1.0) < 1e-9
        assert_matches_longer_cutoff(self.params, gs, monkeypatch)

    def test_live_on_every_panel(self, gs):
        # the grid ends at eps0 = 40 T, where eps is just below it
        sol = solve_yang_yang(self.params, gs)
        assert np.max(sol.eps.values) < 40.0 * self.params.T
        assert_every_panel_live(sol)

    def test_truncated_grid_refused(self, gs, monkeypatch):
        monkeypatch.setattr(bosegas.thermal, "thermal_cutoff", old_cutoff)
        with pytest.raises(NumericsError, match="does not decay"):
            solve_yang_yang(self.params, gs)

    def test_truncated_grid_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(bosegas.thermal, "thermal_cutoff", old_cutoff)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("c = 0.1\nh = 1.0\nT = 0.002\n")
        assert main(["thermal", "--config", str(cfg), "--grid-n", "192",
                     "--out", str(tmp_path / "th.csv")]) == 3
        assert "does not decay" in capsys.readouterr().err


class TestLowTemperatureLaw:
    def test_quadratic_correction(self, gs, thermal):
        T = thermal.params.T
        lam = np.linspace(-0.9 * gs.q, 0.9 * gs.q, 21)
        pred = gs.eps0(lam) + T * T * eps2_at(gs, lam)
        assert np.max(np.abs(thermal.eps_at(lam) - pred)) < 30.0 * T ** 4

    def test_correction_negative_at_origin(self, gs):
        # the resolvent columns are positive, so the quadratic shift is down
        assert np.real(eps2_at(gs, 0.0)) < 0

    def test_sampled_matches_pointwise(self, gs):
        vals = -(np.pi ** 2 / (6.0 * gs.eps0_prime_q)) * (
            gs.R_plus.values + gs.R_minus.values)
        assert np.max(np.abs(vals - eps2_at(gs, gs.grid.nodes))) < 1e-13
