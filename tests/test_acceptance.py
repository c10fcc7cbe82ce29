"""Acceptance suite: ten pinned end-to-end checks, one test each.

Heavy artifacts (grids, factorizations, erosion studies) are cached at module
scope so each expensive build runs once.
"""
import time

import numpy as np
import pytest

import platelab as pl
from platelab import assembly, experiments, verifier
from platelab.errors import BoundViolated

from conftest import disk_setup

# Lowest clamped-disk eigenvalues k^4 from the frequency equation
# J_m(k) I_{m+1}(k) + I_m(k) J_{m+1}(k) = 0 (independent bisection, frozen).
CLAMPED_DISK_LAMBDA = (104.3631055588, 452.0045101332, 452.0045101332)


@pytest.fixture(scope="module")
def disk96():
    return disk_setup(1.0 / 96)


@pytest.fixture(scope="module")
def disk128():
    return disk_setup(1.0 / 128, m=1)


@pytest.fixture(scope="module")
def erosion96(disk96):
    return experiments.run_erosion_study(
        disk96.domain, pl.bilaplacian(), disk96.grid, disk96.mask, 3,
        [0.05, 0.1], pl.lowest_eigenpairs)


def test_acceptance_01_clamped_disk_spectrum_oracle():
    t0 = time.perf_counter()
    dom = pl.disk(1.0)
    grid, mask = pl.build_grid(dom, 1.0 / 64)
    Q0 = assembly.assemble_Q0(grid, mask)
    mass = assembly.assemble_weighted(grid, mask, None, "mass", 0.0, 1)
    spec = pl.lowest_eigenpairs(Q0, mass, m=3)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    for computed, exact in zip(spec.values, CLAMPED_DISK_LAMBDA):
        assert abs(computed - exact) / exact <= 0.02


def test_acceptance_02_ball_law_under_erosion(erosion96):
    for row in erosion96.rows:
        assert row.ball_law_error <= 0.03


def test_acceptance_03_drift_exponent_near_one(disk128):
    report = experiments.run_erosion_study(
        disk128.domain, pl.bilaplacian(), disk128.grid, disk128.mask, 1,
        [0.04, 0.08, 0.12, 0.16], pl.lowest_eigenpairs)
    slope = report.fitted_exponent[1]
    assert slope == pytest.approx(1.0, abs=0.15)


def test_acceptance_04_minmax_drift_nonnegative(erosion96):
    rect = pl.rectangle(2.0, 1.0)
    rect_report = experiments.run_erosion_study(
        rect, pl.bilaplacian(), *pl.build_grid(rect, 1.0 / 64), 3,
        [0.0625, 0.125], pl.lowest_eigenpairs)
    for report in (erosion96, rect_report):
        for row in report.rows:
            floor = -2.0 * (row.residual + row.residual_tilde) * row.lam
            assert row.lam_tilde - row.lam >= floor


def test_acceptance_05_weak_hardy_constants(disk64, disk96, disk128):
    weak_A = []
    weak_B = []
    for setup in (disk64, disk96, disk128):
        grad = assembly.assemble_weighted(setup.grid, setup.mask, None,
                                          "grad", 0.0, 1)
        rep_A = verifier.estimate_hardy_constant(
            grad, setup.dist, "hardy_grad")
        rep_B = verifier.estimate_hardy_constant(
            setup.Q0, setup.dist, "rellich_mass")
        weak_A.append(rep_A.weak_pair[0])
        weak_B.append(rep_B.weak_pair[0])
    assert weak_A[0] >= weak_A[1] >= weak_A[2]
    assert weak_B[0] >= weak_B[1] >= weak_B[2]
    assert 0.25 <= weak_A[-1] <= 0.40
    assert 0.50 <= weak_B[-1] <= 0.90


def test_acceptance_06_decay_dichotomy(disk64, disk96):
    for setup in (disk64, disk96):
        for a in (0.1, 0.25, 0.4):
            rep = verifier.verify_decay(setup.spec, a, setup.dist)
            (_, lo), (_, hi) = rep.n_sweep[-2:]
            assert (hi - lo) <= 0.05 * lo
            assert not rep.blowup
        for a in (0.5, 0.6):
            rep = verifier.verify_decay(setup.spec, a, setup.dist)
            assert rep.blowup
            assert rep.flagged_alpha


def test_acceptance_07_form_inequality_witnesses(disk64, disk96):
    kprimes = {}
    for setup in (disk64, disk96):
        witnesses = verifier.make_witnesses(setup.spec, setup.dist)
        assert len(witnesses) == 8
        for a in (0.1, 0.25, 0.4):
            rep = verifier.probe_P_alpha(
                setup.Q0, setup.mass, setup.dist, a, witnesses)
            assert rep.k_used == pytest.approx(
                1.05 * verifier.k_alpha_ref(a), rel=1e-12)
            assert rep.margin >= 0.0
            assert all(m >= 0.0 for m in rep.per_witness_margin)
            kprimes.setdefault(a, []).append(rep.kprime_used)
    for a, (k64, k96) in kprimes.items():
        assert max(k64, k96) <= 2.0 * min(k64, k96)


def test_acceptance_08_perturbation_chain(disk64):
    witnesses = verifier.make_witnesses(disk64.spec, disk64.dist)
    base = verifier.probe_P_alpha(disk64.Q0, disk64.mass, disk64.dist, 0.25,
                                  witnesses)
    tilde = assembly.perturb_coeffs(pl.bilaplacian(), 0.01, seed=42)
    Qt = assembly.assemble_Q(disk64.grid, disk64.mask, tilde)
    lambda_tilde = assembly.ellipticity_window(tilde)
    c_hat = verifier.measure_cross_term_constant(
        disk64.dist, 0.25, witnesses, Q0=disk64.Q0)
    rep = verifier.probe_perturbation(
        base, Qt, disk64.mass, disk64.dist, tilde.delta_norm, lambda_tilde,
        c_hat, witnesses)
    assert rep.k_used > base.k_used
    assert rep.margin >= 0.0
    assert all(m >= 0.0 for m in rep.per_witness_margin)
    # oversized perturbation must be reported, not asserted through
    with pytest.raises(BoundViolated):
        verifier.probe_perturbation(
            base, Qt, disk64.mass, disk64.dist,
            2.0 * lambda_tilde / (1.0 + c_hat * base.k_used),
            lambda_tilde, c_hat, witnesses)


def test_acceptance_09_eikonal_residual_certificate(disk64):
    cases = [
        (disk64.domain, disk64.grid, disk64.mask, pl.bilaplacian()),
    ]
    rect = pl.rectangle(2.0, 1.0)
    rgrid, rmask = pl.build_grid(rect, 1.0 / 64)
    cases.append((rect, rgrid, rmask,
                  pl.diagonal(np.array([[16.0, 0.0], [0.0, 1.0]]))))
    for dom, grid, mask, coeffs in cases:
        dist = pl.finsler_distance(dom, grid, mask, coeffs)
        res = pl.eikonal_residual(dist, coeffs)
        d_e = pl.euclidean_from_sdf(dom, grid, mask).interior_values()
        far = d_e > 3.0 * grid.h
        assert np.mean(res[far] <= 5.0 * grid.h) >= 0.95


def test_acceptance_10_exact_arithmetic_fixtures():
    assert abs(verifier.gamma_alpha(0.5) - 1.0) <= 1e-12
    assert abs(verifier.k_alpha_ref(0.25) - 48.0 / 35.0) <= 1e-12
    assert abs(verifier.cross_term_bound(1.0, 0.25, 9.0 / 16.0)
               - 18.0) <= 1e-12
