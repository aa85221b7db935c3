"""The exact scaling symmetry (c, h, T, x) -> (c/s, h/s^2, T/s^2, s x) of the
model, checked on the excited-sector path: ground state, Yang-Yang solve,
excited-state solve, decay rate and finite-temperature discrete factor."""

from hypothesis import given, settings, strategies as st

from bosegas import (ExcitationClass, ModelParams, bd_finite_T,
                     build_ground_state, decay_rate_numeric, solve_u,
                     solve_yang_yang)

CLASS = ExcitationClass(ell=1, p_plus=(1,), h_minus=(1,))


def _excited(c, h, T):
    gs = build_ground_state(ModelParams(c=c, h=h))
    params = ModelParams(c=c, h=h, T=T)
    thermal = solve_yang_yang(params, gs)
    sol = solve_u(params, CLASS, thermal=thermal, gs=gs)
    return {"q": gs.q, "D": gs.D, "eps0": thermal.eps_at(0.0),
            "rate": decay_rate_numeric(sol), "bd": bd_finite_T(sol)}


def _rel(a, b):
    return abs(a - b) / abs(b)


@settings(max_examples=20, deadline=None)
@given(ratio=st.floats(0.01, 2.0), t_over_h=st.floats(0.005, 0.02),
       k=st.integers(-3, 3))
def test_scaling_symmetry(ratio, t_over_h, k):
    # lengths scale by 1/s and energies by 1/s^2; for powers of two q, D
    # and eps(0) scale exactly, while the rate and the discrete factor pass
    # through logarithms, whose rounding does not scale
    s = 2.0 ** k
    c, h = ratio ** -0.5, 1.0
    base = _excited(c, h, t_over_h * h)
    scaled = _excited(c / s, h / s ** 2, t_over_h * h / s ** 2)
    assert _rel(scaled["q"] * s, base["q"]) <= 1e-13
    assert _rel(scaled["D"] * s, base["D"]) <= 1e-13
    assert _rel(scaled["eps0"] * s ** 2, base["eps0"]) <= 1e-13
    assert _rel(scaled["rate"] * s, base["rate"]) <= 1e-9
    assert _rel(scaled["bd"], base["bd"]) <= 1e-9
