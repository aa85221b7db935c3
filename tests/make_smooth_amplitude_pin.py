"""30-digit reference for the smooth amplitude B_smooth(alpha, ell) at
c = h = 1 (Fermi grid 96, contour 256), pinned in
``test_amplitude.py::TestAmplitudePlan``.

The plan's formula is evaluated in mpmath on the double q, grid nodes and
weights, contour nodes and weights of the ground state: Z from the 96-node
Nystrom system solved at 30 digits, its Cauchy transforms (with the same
near-interval subtraction), C0, the interval and contour determinants and
the bracket.  At alpha = 0.2, ell = 1 the contour determinant has a
condition number of about 3.5e4, so double evaluations scatter by several
1e-13 around this value.  Needs mpmath; takes a few minutes per ell:

    PYTHONPATH=src python tests/make_smooth_amplitude_pin.py 0 1
"""

import sys

import mpmath as mp
import numpy as np

from bosegas.amplitude import AmplitudePlan, smooth_contour
from bosegas.groundstate import ModelParams, build_ground_state

mp.mp.dps = 30
ALPHA = 0.2


def main(ells):
    gs = build_ground_state(ModelParams(c=1.0, h=1.0))
    c, h, q = mp.mpf(1), mp.mpf(1), mp.mpf(gs.q)
    x = [mp.mpf(v) for v in gs.grid.nodes]
    wts = [mp.mpf(v) for v in gs.grid.weights]
    n_grid = len(x)
    kern = lambda d: 2 * c / (d * d + c * c)
    op = mp.matrix(n_grid, n_grid)
    for i in range(n_grid):
        for j in range(n_grid):
            op[i, j] = (i == j) - kern(x[i] - x[j]) * wts[j] / (2 * mp.pi)
    z = list(mp.lu_solve(op, mp.matrix([mp.mpf(1)] * n_grid)))
    ld_k = mp.log(mp.det(op))

    def z_at(lam):  # the natural Nystrom formula of NystromSolution
        return 1 + mp.fsum(kern(lam - x[j]) * wts[j] * z[j]
                           for j in range(n_grid)) / (2 * mp.pi)

    a, b = float(gs.grid.a), float(gs.grid.b)
    spacing = (b - a) / n_grid

    def cauchy(om):  # numerics.cauchy_transform at the double point om
        inside = a <= om.real <= b
        dist = abs(om.imag) if inside else min(abs(om - a), abs(om - b))
        near = z_at(mp.mpf(float(np.clip(om.real, a, b)))) \
            if dist <= 4.0 * spacing else 0
        o = mp.mpc(om.real, om.imag)
        reg = mp.fsum(wts[j] * (z[j] - near) / (x[j] - o)
                      for j in range(n_grid))
        return reg + near * (mp.log(mp.mpf(b) - o) - mp.log(mp.mpf(a) - o))

    contour = smooth_contour(gs, 256)
    w = [mp.mpc(v.real, v.imag) for v in contour.nodes]
    dz = [mp.mpc(v.real, v.imag) for v in contour.weights]
    n = len(w)
    lz = [cauchy(v) for v in contour.nodes]
    lz_up = [cauchy(v + 1j) for v in contour.nodes]
    lz_dn = [mp.conj(lz_up[-k % n]) for k in range(n)]
    c0 = mp.fsum(wts[i] * z[i] * wts[j] * z[j] / (x[i] - x[j] - 1j * c) ** 2
                 for i in range(n_grid) for j in range(n_grid))
    up, dn = cauchy(complex(-gs.q + 1j)), cauchy(complex(-gs.q - 1j))
    plan = AmplitudePlan(gs)
    for ell in ells:
        al = mp.mpf(ALPHA) + ell
        phase = mp.exp(2j * mp.pi * mp.mpf(ALPHA))
        mat = mp.matrix(n, n)
        for i in range(n):
            scale = -mp.exp(-al * lz[i]) / (mp.exp(-al * lz_up[i])
                                            - phase * mp.exp(-al * lz_dn[i]))
            for j in range(n):
                lam = -q - w[j]
                k_al = 1 / (lam + 1j * c) - phase / (lam - 1j * c)
                k_sum = (phase / (w[j] - w[i] + 1j * c)
                         + 1 / (w[i] - w[j] + 1j * c))
                mat[i, j] = (i == j) + ((k_sum - k_al) * scale * dz[j]
                                        / (2j * mp.pi))
        bracket = mp.exp(-al * up) - phase * mp.exp(-al * dn)
        value = complex((phase - 1) ** 2 / bracket ** 2 * mp.exp(
            -al ** 2 * c0 + 2 * (mp.log(mp.det(mat)) - ld_k)))
        double = plan.amplitude(ALPHA, ell).B_smooth
        print(f"ell = {ell}: {value!r}; double {double!r}, "
              f"{abs(double - value) / abs(value):.2e} off")


if __name__ == "__main__":
    main([int(arg) for arg in sys.argv[1:]] or [0, 1])
