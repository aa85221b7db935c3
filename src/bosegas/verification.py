"""Built-in verification suite.

Each check re-derives one family of analytic results numerically and
compares against an independent route (closed form, exact finite sum, limit
anchor, or grid refinement).  Each check returns its details and a table of
bounds, quantity -> (value, "<=" | ">=", limit), the one place its limits
are stated; pass/fail, the report and the acceptance tests read that table.
The closed forms and estimates that only a check reads sit next to it.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .amplitude import (CONTOUR_NODES, AmplitudePlan, bd_finite_T,
                        c1_functional, discrete_amplitude, double_integral,
                        w_series)
from .correlator import (density_correlator, ell0_closed, ell0_term_fd,
                         generating_asymptotics)
from .excitation import (ExcitationClass, RootTable, USolution,
                         decay_rate_numeric, root_offsets, solve_u)
from .groundstate import (FERMI_NODES, GroundState, ModelParams,
                          build_ground_state)
from .numerics import (SampledFunction, cauchy_sum, cauchy_transform,
                       composite_grid, fredholm_logdet)
from .specfun import barnes_g, gamma_ratio, ln_barnes_g, ln_gamma
from .thermal import solve_yang_yang


_OPS = {"<=": operator.le, ">=": operator.ge}


class Bound(NamedTuple):
    """One verification bound: ``value op limit``, op being "<=" or ">="."""

    value: float
    op: str
    limit: float

    @property
    def holds(self) -> bool:
        return bool(_OPS[self.op](self.value, self.limit))

    @property
    def margin(self):
        """value/limit for "<=", limit/value for ">=": 1 at the limit and
        above 1 beyond it; None for a zero limit."""
        if self.limit == 0:
            return None
        if self.op == "<=":
            return self.value / self.limit
        return self.limit / self.value if self.value > 0 else np.inf


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named verification check."""

    name: str
    passed: bool
    details: dict = field(repr=False)
    bounds: dict = field(repr=False)      # quantity -> Bound
    seconds: float = 0.0

    def summary(self) -> str:
        """Status line naming the tightest bound: a violated one before any
        that holds, then the largest margin (a zero limit counts as 0)."""
        name, bound = max(self.bounds.items(), key=lambda item: (
            not item[1].holds, item[1].margin or 0.0))
        text = f"{name} = {bound.value:.6g} {bound.op} {bound.limit:g}"
        if bound.margin is not None:
            text += f" (margin {bound.margin:.3g})"
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name} ({self.seconds:.1f}s)  {text}"


# the benchmark excited sector used throughout the finite-T checks
BENCHMARK_CLASS = ExcitationClass(ell=1, p_plus=(1,), h_minus=(1,))
T_SEQUENCE = (0.02, 0.01, 0.005)


class Workspace:
    """Caches the expensive solves shared between checks."""

    def __init__(self, grid_n: int = FERMI_NODES,
                 contour_n: int = CONTOUR_NODES):
        self.grid_n = grid_n
        self.contour_n = contour_n
        self._gs = {}
        self._plan = None
        self._thermal = {}
        self._usol = {}

    def ground_state(self, c: float = 1.0, n_nodes=None):
        """Ground state at h = 1, by default on the workspace grid."""
        n = self.grid_n if n_nodes is None else n_nodes
        if (c, n) not in self._gs:
            self._gs[c, n] = build_ground_state(ModelParams(c=c, h=1.0), n)
        return self._gs[c, n]

    def plan(self) -> AmplitudePlan:
        """Amplitude plan of the benchmark ground state (c = h = 1)."""
        if self._plan is None:
            self._plan = AmplitudePlan(self.ground_state(), self.contour_n)
        return self._plan

    def thermal(self, T: float):
        """Yang-Yang solution on the benchmark ground state."""
        if T not in self._thermal:
            self._thermal[T] = solve_yang_yang(ModelParams(c=1.0, h=1.0, T=T),
                                               self.ground_state())
        return self._thermal[T]

    def benchmark_solution(self, T: float):
        if T not in self._usol:
            self._usol[T] = solve_u(ModelParams(c=1.0, h=1.0, T=T),
                                    BENCHMARK_CLASS, self.thermal(T))
        return self._usol[T]


def _fit_exponent(ts, values):
    return float(np.polyfit(np.log(ts), np.log(np.maximum(values, 1e-300)),
                            1)[0])


def check_free_fermion(ws: Workspace):
    """Strong-coupling anchor: all scalars reach their free-fermion values."""
    gs = ws.ground_state(c=1e6)
    details = {"q": gs.q, "Zq": gs.Zq, "v0": gs.v0, "D": gs.D}
    bounds = {"q_err": (abs(gs.q - 1.0), "<=", 1e-3),
              "Zq_err": (abs(gs.Zq - 1.0), "<=", 1e-3),
              "v0_err": (abs(gs.v0 - 2.0), "<=", 2e-3),
              "D_err": (abs(gs.D - 1.0 / np.pi), "<=", 1e-3)}
    return details, bounds


def eps2_at(gs: GroundState, lam):
    """Quadratic thermal correction of eps, off the grid; R(l, q) is the
    mirror R(-l, -q)."""
    return -(np.pi ** 2 / (6.0 * gs.eps0_prime_q)) * (
        gs.R_minus(-lam) + gs.R_minus(lam))


def check_thermal_low_t(ws: Workspace):
    """Low-temperature law of the thermal energy: the remainder beyond the
    quadratic correction scales like a power of T near 3, and the quadratic
    coefficient at the origin matches its closed form."""
    gs = ws.ground_state()
    lam = np.linspace(-0.9 * gs.q, 0.9 * gs.q, 41)
    ts = (0.04, 0.02, 0.01)
    remainders, coef_errs = [], []
    for T in ts:
        th = ws.thermal(T)
        pred = gs.eps0(lam) + T * T * eps2_at(gs, lam)
        remainders.append(float(np.max(np.abs(th.eps_at(lam) - pred))))
        coef = (th.eps_at(0.0) - gs.eps0(0.0)) / T ** 2
        coef_errs.append(float(abs(coef / eps2_at(gs, 0.0) - 1.0)))
    details = {"T": list(ts), "remainder": remainders,
               "coef_rel_err": coef_errs}
    bounds = {"exponent": (_fit_exponent(ts, remainders), ">=", 2.7),
              f"coef_rel_err(T={ts[-1]})": (coef_errs[-1], "<=", 0.02)}
    return details, bounds


def u1_function(gs: GroundState, alpha: complex, ell: int) -> SampledFunction:
    """Linear thermal correction of the excited-state energy, even in
    lambda: -2 pi i alpha_ell Z(lambda) + 2 pi i ell."""
    al = alpha + ell
    vals = -2.0j * np.pi * al * gs.Z.values + 2.0j * np.pi * ell
    return SampledFunction(gs.grid, vals)


def u2_function(gs: GroundState, roots: RootTable) -> SampledFunction:
    """Quadratic thermal correction of the excited-state energy, in terms of
    the resolvent columns and the per-side root-offset sums."""
    u1 = roots.u1_at_q
    common = (np.pi ** 2 / 3.0 + u1 ** 2) / (2.0 * gs.eps0_prime_q)
    coef = {side: 2.0 * np.pi * sum(r.offset for r in roots if r.side == side)
            - common for side in (1, -1)}
    # R(l, q) is the mirror R(-l, -q) on the mirrored nodes
    vals = coef[1] * gs.R_minus.values[::-1] + coef[-1] * gs.R_minus.values
    return SampledFunction(gs.grid, vals)


def check_excited_expansion(ws: Workspace):
    """The solved excited-state energy matches its closed expansion through
    the quadratic thermal correction, with remainder ~ T^3."""
    gs = ws.ground_state()
    cls = BENCHMARK_CLASS
    u1f = u1_function(gs, 0.0, cls.ell)
    u2f = u2_function(gs, root_offsets(gs, cls, 0.0))
    lam = np.linspace(-0.9 * gs.q, 0.9 * gs.q, 41)
    remainders = []
    for T in T_SEQUENCE:
        sol = ws.benchmark_solution(T)
        pred = gs.eps0(lam) + T * u1f(lam) + T * T * u2f(lam)
        remainders.append(float(np.max(np.abs(sol.u_at(lam) - pred))))
    details = {"T": list(T_SEQUENCE), "remainder": remainders}
    bounds = {"exponent": (_fit_exponent(T_SEQUENCE, remainders), ">=", 2.7)}
    return details, bounds


def decay_rate_closed(gs: GroundState, cls: ExcitationClass, alpha: complex,
                      T: float) -> complex:
    """Closed decay rate, linear in T."""
    al = alpha + cls.ell
    qn_sum = sum(cls.p_plus + cls.p_minus + cls.h_plus + cls.h_minus)
    bracket = ((al * gs.Zq) ** 2 - cls.ell ** 2 - cls.n + qn_sum)
    return complex(-2.0j * al * gs.kF + (2.0 * np.pi * T / gs.v0) * bracket)


def check_decay_rate(ws: Workspace):
    """Decay rate by phase integral vs its closed linear-in-T form; the
    closed rate's oscillation frequency is exactly twice the Fermi momentum
    per unit twist."""
    gs = ws.ground_state()
    cls = BENCHMARK_CLASS
    al = 0.0 + cls.ell
    diffs, im_closed_errs, im_numeric_errs = [], [], []
    for T in T_SEQUENCE:
        sol = ws.benchmark_solution(T)
        pn = decay_rate_numeric(sol)
        pc = decay_rate_closed(gs, cls, 0.0, T)
        diffs.append(abs(pn - pc))
        im_closed_errs.append(abs(pc.imag + 2.0 * al * gs.kF))
        im_numeric_errs.append(abs(pn.imag + 2.0 * al * gs.kF))
    details = {"T": list(T_SEQUENCE), "diff": diffs,
               "im_closed_err": im_closed_errs,
               "im_numeric_err": im_numeric_errs}
    bounds = {"exponent": (_fit_exponent(T_SEQUENCE, diffs), ">=", 1.7),
              "max_im_closed_err": (max(im_closed_errs), "<=", 1e-6)}
    return details, bounds


def w_closed(nu: complex, r: int, tau: float) -> complex:
    """Closed form of the configuration sum ``w_series``."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    g_num = barnes_g(1.0 + r + complex(nu))
    if g_num == 0:
        return 0.0 + 0.0j
    g_den = barnes_g(1.0 + complex(nu))
    base = 1.0 - np.exp(-tau)
    power = np.exp(-((complex(nu) + r) ** 2) * np.log(base))
    return complex((g_num / g_den) ** 2 * np.exp(-0.5 * tau * r * (r - 1))
                   * power)


def check_w_identity(ws: Workspace):
    """Finite configuration sum, as its Cauchy-Binet determinant, vs its
    Barnes-function closed form."""
    worst = 0.0
    table = []
    for nu in (0.3, -0.25 + 0.1j):
        for r in (-1, 0, 1, 2):
            for tau in (1.0, 2.0):
                cutoff = int(np.ceil(41.0 / tau))
                series = w_series(nu, r, tau, cutoff)
                closed = w_closed(nu, r, tau)
                rel = abs(series - closed) / abs(closed)
                worst = max(worst, rel)
                table.append({"nu": nu, "r": r, "tau": tau, "rel_err": rel})
    return {"table": table}, {"worst": (worst, "<=", 1e-8)}


def _laplace_integral(a: float, b: float, p: float) -> float:
    """The left side of the identity below, by 16 Gauss-Legendre nodes on
    each unit panel of [0, ceil(40/p)]: the poles of 1/sinh(pi w) lie at
    distance 1, and the e^{-p w} tail is below 1e-17 past the cutoff."""
    grid = composite_grid(np.arange(np.ceil(40.0 / p) + 1.0), 16)
    w = grid.nodes
    # pi/sinh(pi w) * e^{-aw} = 2 pi e^{-(pi+a)w} / (1 - e^{-2 pi w});
    # everything decays since |a|, |b| < pi + p
    damp = 1.0 - np.exp(-2.0 * np.pi * w)
    br = (b - a) - 2.0 * np.pi * (np.exp(-(np.pi + a) * w)
                                  - np.exp(-(np.pi + b) * w)) / damp
    return float(np.sum(grid.weights * np.exp(-p * w) * br / w))


def verify_gamma_integral_identity(a: float, b: float, p: float) -> float:
    """Residual of the Laplace-type integral identity

    int_0^inf e^{-p w}/w [b - a - pi/sinh(pi w) (e^{-a w} - e^{-b w})] dw
        = (a-b) log(p/2pi) + 2pi log Gamma((p+b)/2pi + 1/2)
                           - 2pi log Gamma((p+a)/2pi + 1/2),

    evaluated by fixed Gauss-Legendre panels on the left and log-Gamma on
    the right.  Returns |LHS - RHS| / (1 + |RHS|).
    """
    if p <= 0.0:
        raise ValueError("p must be positive")
    if max(abs(a), abs(b)) >= p + np.pi:
        raise ValueError("integrand does not decay for these (a, b, p)")
    if a == b:
        return 0.0
    lhs = _laplace_integral(a, b, p)
    two_pi = 2.0 * np.pi
    rhs = ((a - b) * np.log(p / two_pi)
           + two_pi * (ln_gamma((p + b) / two_pi + 0.5).real
                       - ln_gamma((p + a) / two_pi + 0.5).real))
    return abs(lhs - rhs) / (1.0 + abs(rhs))


def check_gamma_integral(ws: Workspace):
    """Quadrature vs Gamma-function closed form of the exponential-kernel
    integral identity."""
    triples = [(0.5, 0.5, 1.0), (0.3, 0.7, 1.0), (-0.4, 0.4, 2.0)]
    residuals = [verify_gamma_integral_identity(a, b, p)
                 for a, b, p in triples]
    details = {"triples": triples, "residuals": residuals}
    return details, {"max_residual": (max(residuals), "<=", 1e-8)}


def k_alpha(lam, phase: complex, c: float):
    """Twisted Cauchy kernel 1/(l + ic) - phase/(l - ic), where
    phase = e^{2 pi i alpha}."""
    return 1.0 / (lam + 1j * c) - phase / (lam - 1j * c)


def row_scaled_kernel(plan: AmplitudePlan, alpha, ell, theta=None):
    """The kernel of the smooth factor's first determinant, from the plan's
    fields: k_alpha(w_i - w_j) - k_alpha(-theta - w_j), row-scaled by
    -e^{-al L}/denom1 at reference point -theta (by default -q)."""
    c, w = plan.gs.params.c, plan.contour.nodes
    theta = plan.gs.q if theta is None else theta
    al, phase = alpha + ell, np.exp(2j * np.pi * alpha)
    ka = k_alpha(w[:, None] - w[None, :], phase, c)
    denom1 = np.exp(-al * plan.lz_up) - phase * np.exp(-al * plan.lz_dn)
    row = (-np.exp(-al * plan.lz) / denom1)[:, None]
    return row * (ka - k_alpha(-theta - w[None, :], phase, c))


def two_determinants(plan: AmplitudePlan, alpha, ell, theta=None):
    """The complex route to the smooth factor, with none of the symmetries
    of the plan's real form: both determinants as complex ones over the
    whole contour (the row-scaled kernel at -theta and the kernel
    column-scaled by e^{al L}/denom2 at theta, by default q), and both
    brackets from their own Cauchy transforms. Returns the two
    log-determinants and the factor, the smooth amplitude over
    (e^{2 pi i alpha} - 1)^2 at any theta."""
    gs, c = plan.gs, plan.gs.params.c
    theta = gs.q if theta is None else theta
    w = plan.contour.nodes
    al, phase = alpha + ell, np.exp(2j * np.pi * alpha)
    ka = k_alpha(w[:, None] - w[None, :], phase, c)
    denom2 = np.exp(al * plan.lz_dn) - phase * np.exp(al * plan.lz_up)
    pref = 1.0 / (2j * np.pi)
    col = (np.exp(al * plan.lz) / denom2)[None, :]
    ld1 = fredholm_logdet(row_scaled_kernel(plan, alpha, ell, theta),
                          plan.contour, pref)
    ld2 = fredholm_logdet((ka - k_alpha(w[:, None] - theta, phase, c)) * col,
                          plan.contour, pref)
    up1, dn1, dn2, up2 = cauchy_transform(gs.Z, np.array(
        [-theta + 1j * c, -theta - 1j * c, theta - 1j * c, theta + 1j * c]))
    bracket1 = np.exp(-al * up1) - phase * np.exp(-al * dn1)
    bracket2 = np.exp(al * dn2) - phase * np.exp(al * up2)
    factor = (np.exp(-al ** 2 * plan.c0 + ld1 + ld2 - 2.0 * plan.ld_k)
              / (bracket1 * bracket2))
    return ld1, ld2, factor


def check_smooth_amplitude(ws: Workspace):
    """Contour-determinant amplitude invariances: independence of the
    auxiliary reference pair (-theta, theta), the plan's real form at
    theta = q against the complex route at theta = 0.6 q; the identity
    limit at zero twist; and the quadratic vanishing at integer twist for
    a nonzero umklapp number."""
    plan = ws.plan()

    def b_smooth(alpha, ell):
        return plan.amplitude(alpha, ell).B_smooth

    b_route = ((np.exp(2j * np.pi * 0.2) - 1.0) ** 2
               * two_determinants(plan, 0.2, 1, 0.6 * plan.gs.q)[2])
    step = 1e-6
    bounds = {"theta_dev": (abs(b_route / b_smooth(0.2, 1) - 1.0), "<=", 1e-6),
              "near_one_err": (abs(b_smooth(1e-4, 0) - 1.0), "<=", 1e-6),
              "at_integer": (abs(b_smooth(0.0, 1)), "<=", 0.0),
              "fd_slope": (abs(b_smooth(step, 1) - b_smooth(-step, 1))
                           / (2.0 * step), "<=", 1e-6)}
    return {}, bounds


def check_discrete_limit(ws: Workspace):
    """The weighted finite-temperature discrete factor converges to its
    closed zero-temperature limit."""
    gs = ws.ground_state()
    cls = BENCHMARK_CLASS
    al = 0.0 + cls.ell
    target = discrete_amplitude(gs, cls, 0.0)
    errs = []
    for T in T_SEQUENCE:
        sol = ws.benchmark_solution(T)
        weight = (gs.q * gs.eps0_prime_q / (np.pi * T)) ** gs.exponent(al)
        scaled = bd_finite_T(sol) * weight
        errs.append(abs(scaled - target) / abs(target))
    details = {"T": list(T_SEQUENCE), "target": complex(target),
               "rel_err": errs}
    return details, {"exponent": (_fit_exponent(T_SEQUENCE, errs), ">=", 0.7)}


def edge_charge_integral(gs: GroundState) -> float:
    """int_{-q}^{q} (Z(m) - Zq) / (m - q) dm; regular since Z(q) = Zq."""
    grid = gs.grid
    vals = (gs.Z.values - gs.Zq) / (grid.nodes - gs.q)
    return float(np.real(np.sum(grid.weights * vals)))


def verify_cauchy_edge(sol: USolution) -> list:
    """Relative deviations of the weighted per-root Cauchy transforms from
    their closed Gamma-ratio limits, in root order; they are expected to
    vanish linearly in T."""
    gs = sol.thermal.gs
    T = sol.params.T
    al = sol.params.alpha + sol.cls.ell
    u1 = sol.roots.u1_at_q
    nu1 = u1 / (2.0j * np.pi)
    scale = np.log(gs.q * gs.eps0_prime_q / (np.pi * T))
    edge = edge_charge_integral(gs)

    deviations = []
    weighted = sol.contour.weights * sol.z
    for r, cz in zip(sol.roots, cauchy_sum(sol.contour.nodes, weighted,
                                           sol.points)):
        x = r.side * nu1
        lhs = np.exp(cz + x * scale)
        # the e^{+-u1/4} factors carry the sign fixed by consistency with
        # the product over all roots (and hence with the discrete-amplitude
        # limit): +u1/4 for the upper-half roots, -u1/4 for the lower-half
        num, den = (r.k, r.k - x) if r.half > 0 else (r.k + x, r.k)
        rhs = (np.exp(-al * r.side * edge + r.half * u1 / 4.0)
               * gamma_ratio([num], [den]))
        deviations.append(abs(lhs - rhs) / abs(rhs))
    return deviations


def verify_double_integral(sol: USolution) -> float:
    """Relative deviation of the double integral from its closed low-T form
    C1[u1/2pi i] - 2 (u1/2pi i)^2 log(q eps0'/pi T) + 2 log G(1, u1/2pi i)."""
    gs = sol.thermal.gs
    T = sol.params.T
    al = sol.params.alpha + sol.cls.ell
    nu1 = sol.roots.u1_at_q / (2.0j * np.pi)
    a_num = double_integral(sol)
    f_vals = sol.cls.ell - al * gs.Z.values   # u1(lambda) / 2 pi i
    pred = (c1_functional(SampledFunction(gs.grid, f_vals))
            - 2.0 * nu1 ** 2 * np.log(gs.q * gs.eps0_prime_q / (np.pi * T)))
    if nu1 != 0:
        pred += 2.0 * (ln_barnes_g(1.0 + nu1) + ln_barnes_g(1.0 - nu1))
    return float(abs(a_num - pred) / max(1.0, abs(pred)))


def check_edge_asymptotics(ws: Workspace):
    """Edge estimates of the per-root Cauchy transforms and of the double
    integral: deviations small at the middle temperature and strictly
    decreasing with T."""
    edge_devs, di_devs = [], []
    for T in T_SEQUENCE:
        sol = ws.benchmark_solution(T)
        edge_devs.append(max(verify_cauchy_edge(sol), default=0.0))
        di_devs.append(verify_double_integral(sol))
    details = {"T": list(T_SEQUENCE), "edge_dev": edge_devs,
               "double_integral_dev": di_devs}
    bounds = {}
    for name, devs in (("edge_dev", edge_devs),
                       ("double_integral_dev", di_devs)):
        bounds[f"{name}(T={T_SEQUENCE[1]})"] = (devs[1], "<=", 0.15)
        # steps that fail to decrease strictly, NaN included
        bounds[f"{name}_non_decreasing_steps"] = (
            sum(not a > b for a, b in zip(devs, devs[1:])), "<=", 0)
    return details, bounds


def harmonic_fd(plan: AmplitudePlan, ell: int):
    """The harmonic coefficient by the finite-difference route, the
    independent cross-check of ``AmplitudePlan.harmonic``.

    Central second twist differences of the term amplitude at steps
    h = 1e-3, h/2 and h/4 (it vanishes quadratically at zero twist, so two
    evaluations per step suffice), with one Richardson refinement.  Returns
    the coefficient and the relative gap between the two Richardson values.
    """
    def second_diff(h):
        return (plan.amplitude(h, ell).A_tilde
                + plan.amplitude(-h, ell).A_tilde) / h ** 2

    d_h, d_2, d_4 = (second_diff(f * 1e-3) for f in (1.0, 0.5, 0.25))
    r_coarse = (4.0 * d_2 - d_h) / 3.0
    r_fine = (4.0 * d_4 - d_2) / 3.0
    gap = abs(r_fine - r_coarse) / max(abs(r_fine), 1e-300)
    return complex(0.5 * plan.gs.D ** 2 * ell ** 2 * r_fine), float(gap)


def check_assembly(ws: Workspace):
    """Assembled series sanity: unit-twist periodicity of the harmonic
    terms, reality of the correlator, agreement of the closed-form ell = 1
    amplitude with the finite-difference route (whose Richardson gap is
    bounded too), and agreement of the closed non-oscillating term with
    the full finite-difference route."""
    plan = ws.plan()
    gs = plan.gs
    T = 0.01
    x = 2.0 * gs.v0 / (np.pi * T)
    _, terms_a = generating_asymptotics(plan, 0.2, x, T, 2)
    _, terms_b = generating_asymptotics(plan, 1.2, x, T, 2)
    va = {t.ell: t.value for t in terms_a}
    vb = {t.ell: t.value for t in terms_b}
    period_dev = max(abs(va[l] - vb[l - 1]) for l in va if l - 1 in vb)

    series = density_correlator(plan, x, T, ell_max=2)
    reality = abs(series.total.imag) / abs(series.total.real)
    colsum = (series.constant + series.ell0_term
              + sum(t.value for t in series.harmonics))
    colsum_dev = abs(colsum - series.total)

    closed = next(t.amplitude for t in series.harmonics if t.ell == 1)
    fd_amp, richardson = harmonic_fd(plan, 1)
    closed_fd_rel = abs(fd_amp - closed) / abs(closed)

    T_fd = 0.05
    x_fd = 1.5 * gs.v0 / (np.pi * T_fd)
    fd = ell0_term_fd(plan, x_fd, T_fd)
    ell0 = gs.D ** 2 + ell0_closed(gs, x_fd, T_fd)
    fd_rel = abs(fd - ell0) / abs(ell0)

    bounds = {"period_dev": (period_dev, "<=", 1e-10),
              "reality": (reality, "<=", 1e-9),
              "colsum_dev": (colsum_dev, "<=", 1e-12),
              "richardson_gap": (richardson, "<=", 1e-4),
              "closed_fd_rel": (closed_fd_rel, "<=", 1e-6),
              "ell0_fd_rel": (fd_rel, "<=", 1e-6)}
    return {}, bounds


def check_grid_hygiene(ws: Workspace):
    """Doubling the interval grid and the determinant contour moves no
    golden scalar by more than its relative bound."""
    gs2 = ws.ground_state(n_nodes=2 * ws.grid_n)
    alpha = 0.2

    def scalars(plan):
        g = plan.gs
        return {
            "q": g.q, "Zq": g.Zq, "v0": g.v0,
            "A0": plan.amplitude(alpha, 0).A_tilde,
            "A1": plan.amplitude(alpha, 1).A_tilde,
        }

    base = scalars(ws.plan())
    fine = scalars(AmplitudePlan(gs2, 2 * ws.contour_n))
    rel = {k: abs(fine[k] - base[k]) / abs(fine[k]) for k in base}
    details = {"base": {k: complex(v) for k, v in base.items()},
               "doubled": {k: complex(v) for k, v in fine.items()},
               "rel_change": rel}
    return details, {"max_rel_change": (max(rel.values()), "<=", 1e-8)}


CHECKS = {
    "free-fermion": check_free_fermion,
    "thermal-low-t": check_thermal_low_t,
    "excited-expansion": check_excited_expansion,
    "decay-rate": check_decay_rate,
    "w-identity": check_w_identity,
    "gamma-integral": check_gamma_integral,
    "smooth-amplitude": check_smooth_amplitude,
    "discrete-limit": check_discrete_limit,
    "edge-asymptotics": check_edge_asymptotics,
    "assembly": check_assembly,
    "grid-hygiene": check_grid_hygiene,
}


def run_checks(names=None, grid_n: int = FERMI_NODES,
               contour_n: int = CONTOUR_NODES):
    """Run the named checks (all by default) sharing one workspace."""
    names = list(CHECKS) if names is None else names
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}; "
                         f"available: {', '.join(CHECKS)}")
    ws = Workspace(grid_n=grid_n, contour_n=contour_n)
    results = []
    for name in names:
        t0 = time.time()
        details, table = CHECKS[name](ws)
        bounds = {k: Bound(*v) for k, v in table.items()}
        results.append(CheckResult(
            name=name, passed=all(b.holds for b in bounds.values()),
            details=details, bounds=bounds, seconds=time.time() - t0))
    return results
