"""Closed-form checks of the lattice spectrum beyond the disk's Bessel
values: the clamped unit square's lambda_1, the two-grid estimate
2 lambda(h) - lambda(2h) on the disk and the ellipse, and the Hadamard
density of erosion whose depth varies along the disk's boundary."""
import functools

import numpy as np
import pytest

import platelab as pl
from platelab import assembly
from platelab.geometry import INTERIOR_TOL, GridMask

from conftest import disk_setup

# the clamped unit square's lambda_1 (Bjorstad & Tjostheim, Computing 63,
# 1999), quoted without an offline check of its digits
SQUARE_LAMBDA1 = 1294.9339795917
DISK_LAMBDA1 = 104.3631055588
S = np.diag([1.0, 0.7])


@functools.lru_cache(maxsize=None)
def _lambda1(kind, n):
    """lambda_1 of the clamped pencil at h = 1/n: the bilaplacian on the
    unit square or disk, or ``product`` of S^2 on the ellipse S(D), whose
    spectrum is the disk's."""
    if kind == "disk":  # the acceptance suite's cached disks
        return float(disk_setup(1.0 / n, m=1 if n == 128 else 5)
                     .spec.values[0])
    domain, coeffs = {
        "square": (pl.rectangle(1.0, 1.0), pl.bilaplacian()),
        "ellipse": (pl.superellipse(S[0, 0], S[1, 1], 2), pl.product(S @ S)),
    }[kind]
    grid, mask = pl.build_grid(domain, 1.0 / n)
    Q = assembly.assemble_Q(grid, mask, coeffs)
    mass = assembly.assemble_weighted(grid, mask, None, "mass", 0.0, 1)
    return float(pl.lowest_eigenpairs(Q, mass, m=1).values[0])


def _two_grid(kind, n):
    """2 lambda(1/n) - lambda(2/n), which cancels a first-order error."""
    return 2.0 * _lambda1(kind, n) - _lambda1(kind, n // 2)


def test_unit_square_converges_at_first_order():
    # measured: -11.29, -5.93, -3.04% at h = 1/32, 1/64, 1/128
    err = [_lambda1("square", n) / SQUARE_LAMBDA1 - 1.0
           for n in (32, 64, 128)]
    assert err[0] < err[1] < err[2] < 0.0
    assert err[1] / err[0] == pytest.approx(0.5, abs=0.03)
    assert err[2] / err[1] == pytest.approx(0.5, abs=0.03)


def test_unit_square_two_grid_value_meets_the_reference():
    # measured: -0.575% from h = 1/32, 1/64 and -0.154% from 1/64, 1/128
    coarse, fine = (_two_grid("square", n) / SQUARE_LAMBDA1 - 1.0
                    for n in (64, 128))
    assert abs(fine) <= 2e-3
    assert abs(fine) < 0.3 * abs(coarse)


@pytest.mark.parametrize("kind, coarse, fine", [
    ("disk", -0.2760e-2, 0.0190e-2),
    ("ellipse", -0.0997e-2, -0.4021e-2),
])
def test_two_grid_values_as_measured(kind, coarse, fine):
    # on a curved boundary the wall offset varies from node to node, so the
    # extrapolation scatters instead of converging as on the square
    got = [_two_grid(kind, n) / DISK_LAMBDA1 - 1.0 for n in (64, 128)]
    np.testing.assert_allclose(got, [coarse, fine], rtol=0, atol=5e-5)


ERODE_STEPS = np.array([4, 6, 8, 10, 12])


def _hadamard_slopes(g):
    """dlambda/deps at eps = 0 over 4 lambda_h, for the lowest three
    eigenvalues of the h = 1/96 disk eroded to {d > eps g(theta)}, theta the
    node's polar angle: drift / eps at eps = 4h .. 12h, fitted by a
    quadratic in eps and read at eps = 0.  For the inward normal speed g the
    continuum slope is the boundary integral of g q(nu) u_nunu^2, which is
    4 lambda for g = 1 (Hadamard 1908; Rellich 1940)."""
    disk = disk_setup(1.0 / 96)
    grid, h = disk.grid, disk.h
    X, Y = grid.meshgrid()
    depth = g(np.arctan2(Y, X))
    lam = disk.spec.values[:3]
    eps = ERODE_STEPS * h
    drift = []
    for e in eps:
        sub = GridMask(disk.dist.d > e * depth + INTERIOR_TOL * h)
        spec = pl.lowest_eigenpairs(
            assembly.assemble_Q0(grid, sub),
            assembly.assemble_weighted(grid, sub, None, "mass", 0.0, 1), m=3)
        drift.append(spec.values - lam)
    fit = np.polyfit(eps, np.array(drift) / eps[:, None], 2)
    return fit[-1] / (4.0 * lam)


def test_translation_erosion_follows_the_ball_law():
    # g = 1 + 0.5 cos(theta) moves the disk at first order, so every slope
    # is 4 lambda; measured: 1.0039, 1.0056, 1.0019
    slopes = _hadamard_slopes(lambda t: 1.0 + 0.5 * np.cos(t))
    assert np.all(np.abs(slopes - 1.0) <= 0.006)
    assert abs(slopes[1] - slopes[2]) <= 0.004


def test_cos2_erosion_splits_the_pair():
    # u_nunu^2 of the lambda_2 pair goes as cos^2 and sin^2 of theta, so
    # g = 1 + 0.5 cos(2 theta) gives it the slopes 4 lambda (1 -+ 1/4) and
    # phi_1 still 4 lambda; measured: 0.9725, 0.7097, 1.2347
    slopes = _hadamard_slopes(lambda t: 1.0 + 0.5 * np.cos(2.0 * t))
    assert slopes[1] < 1.0 < slopes[2]
    np.testing.assert_allclose(slopes, [0.9725, 0.7097, 1.2347],
                               rtol=0, atol=1e-3)
