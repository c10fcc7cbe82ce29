"""The ``product`` operator of b = S^2 on the ellipse S(D), D the unit disk,
is the bilaplacian on D in disguise: with u(x) = v(S^-1 x) the form and the
mass are det S times the disk's, so the clamped eigenvalues are the disk's,
the Finsler distance is 1 - |S^-1 x|, and erosion by that distance leaves
S((1 - eps) D), which has the disk's ball law.  Here S = diag(1, 0.7)."""
import numpy as np
import pytest

import platelab as pl
from platelab import assembly
from platelab.geometry import INTERIOR_TOL

S = np.diag([1.0, 0.7])
# the clamped unit disk: k^4 for the roots k of J_m(k) I_m+1(k) +
# I_m(k) J_m+1(k), m = 0 and the pair m = 1
DISK_LAMBDA = (104.3631055588, 452.0045101332, 452.0045101332)


def _setup(h):
    domain = pl.superellipse(S[0, 0], S[1, 1], 2)
    coeffs = pl.product(S @ S)
    grid, mask = pl.build_grid(domain, h)
    return domain, coeffs, grid, mask


@pytest.mark.parametrize("h", [1 / 32, 1 / 64], ids=["h32", "h64"])
def test_finsler_distance_is_the_disk_distance(h):
    domain, coeffs, grid, mask = _setup(h)
    dist = pl.finsler_distance(domain, grid, mask, coeffs)
    xs, ys = (mask.restrict(c) for c in grid.meshgrid())
    exact = 1.0 - np.hypot(xs / S[0, 0], ys / S[1, 1])
    assert np.abs(dist.interior_values() - exact).max() <= 1e-14


def _relative_errors(h):
    _, coeffs, grid, mask = _setup(h)
    Q = assembly.assemble_Q(grid, mask, coeffs)
    mass = assembly.assemble_weighted(grid, mask, None, "mass", 0.0, 1)
    spec = pl.lowest_eigenpairs(Q, mass, m=3)
    return spec.values / DISK_LAMBDA - 1.0


def test_spectrum_converges_to_the_disk_from_below():
    # measured: -10.05, -11.75, -8.70% at h = 1/32 and -5.08, -5.59, -4.65%
    # at h = 1/64, first order like the disk's own error (README
    # limitation 1); the lattice's anisotropy splits the pair
    coarse, fine = _relative_errors(1 / 32), _relative_errors(1 / 64)
    assert np.all(coarse < fine) and np.all(fine < 0.0)
    assert fine[0] / coarse[0] == pytest.approx(0.5, abs=0.02)
    assert np.all(fine / coarse < 0.6)


# the ball law (1 - eps)^-4 of erosion by the operator's distance:
# {d_a > eps} = S((1 - eps) D)
ERODE_EPS = (1 / 16, 1 / 8, 1 / 4)


def _erosion_errors(h):
    """lambda_1(Omega_eps) / lambda_1 over the ball law, less 1, for the
    dof sets {d_a > eps} cut out of the form by principal submatrices."""
    domain, coeffs, grid, mask = _setup(h)
    Q = assembly.assemble_Q(grid, mask, coeffs)
    mass = assembly.assemble_weighted(grid, mask, None, "mass", 0.0, 1)
    lam = pl.lowest_eigenpairs(Q, mass, m=1).values[0]
    dist = pl.finsler_distance(domain, grid, mask, coeffs)
    errs = []
    for eps in ERODE_EPS:
        sub = dist.d > eps + INTERIOR_TOL * h   # as the erosion study rounds
        lam_eps = pl.lowest_eigenpairs(
            assembly.principal_submatrix(Q, mask, sub),
            assembly.principal_submatrix(mass, mask, sub), m=1).values[0]
        errs.append(lam_eps / lam * (1.0 - eps) ** 4 - 1.0)
    return np.array(errs)


def test_finsler_erosion_follows_the_ball_law():
    # measured: -0.28, -1.85, -3.66% at h = 1/32 and -0.40, -1.07, -1.93%
    # at h = 1/64 for eps = 1/16, 1/8, 1/4; at eps = 1/16 the error does
    # not fall from 1/32 to 1/64, so no rate is asserted there
    coarse, fine = _erosion_errors(1 / 32), _erosion_errors(1 / 64)
    assert np.all(np.abs(fine) <= 0.025)
    np.testing.assert_allclose(fine[1:] / coarse[1:], 0.5, atol=0.1)
