from pathlib import Path

import numpy as np
import pytest

import platelab as pl
from platelab import finsler
from platelab.errors import NegativeQuartic, NoConvergence
from test_spectral import _callers


def test_tensor_symmetries_hold():
    for coeffs in (pl.bilaplacian(),
                   pl.product(np.array([[4.0, 1.0], [1.0, 2.0]])),
                   pl.diagonal(np.array([[16.0, 0.5], [0.5, 1.0]]))):
        for (i, j, k, l) in [(0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 1),
                             (0, 0, 0, 1), (1, 0, 1, 1)]:
            a = coeffs.tensor_entry(i, j, k, l)
            assert a == pytest.approx(coeffs.tensor_entry(j, i, k, l))
            assert a == pytest.approx(coeffs.tensor_entry(i, j, l, k))
            assert a == pytest.approx(coeffs.tensor_entry(k, l, i, j))


def test_cross_contraction_ordering():
    # sum a_ijkl xi_i xi_k eta_j eta_l <= sum a_ijkl xi_i xi_j eta_k eta_l
    rng = np.random.default_rng(1)
    fields = (pl.bilaplacian(),
              pl.product(np.array([[4.0, 1.0], [1.0, 2.0]])),
              pl.diagonal(np.array([[16.0, 0.5], [0.5, 1.0]])))
    for coeffs in fields:
        for _ in range(20):
            xi = rng.standard_normal(2)
            eta = rng.standard_normal(2)
            lhs = rhs = 0.0
            for i in range(2):
                for j in range(2):
                    for k in range(2):
                        for l in range(2):
                            a = float(coeffs.tensor_entry(i, j, k, l))
                            lhs += a * xi[i] * xi[k] * eta[j] * eta[l]
                            rhs += a * xi[i] * xi[j] * eta[k] * eta[l]
            assert lhs <= rhs + 1e-10 * abs(rhs)


def test_dual_metric_bilaplacian_is_euclidean():
    c = pl.bilaplacian()
    assert pl.dual_metric(c, np.array([3.0, 4.0])) == pytest.approx(5.0)
    assert pl.dual_metric(c, np.array([0.0, 0.0])) == 0.0


def test_dual_metric_product_tensor():
    c = pl.product(np.diag([4.0, 1.0]))
    assert pl.dual_metric(c, np.array([1.0, 0.0])) == pytest.approx(2.0)


def test_dual_metric_homogeneity():
    c = pl.diagonal(np.array([[16.0, 0.0], [0.0, 1.0]]))
    xi = np.array([0.7, -0.4])
    p1 = pl.dual_metric(c, xi)
    p3 = pl.dual_metric(c, 3.0 * xi)
    assert p3 == pytest.approx(3.0 * p1)


def test_dual_metric_negative_quartic():
    bad = finsler.CoefficientField("bad", -np.eye(3))
    with pytest.raises(NegativeQuartic):
        pl.dual_metric(bad, np.array([1.0, 0.0]))


def test_distance_disk_center():
    dom = pl.disk(1.0)
    h = 1.0 / 32
    grid, mask = pl.build_grid(dom, h)
    dist = pl.finsler_distance(dom, grid, mask, pl.bilaplacian())
    assert dist.d[grid.ny // 2, grid.nx // 2] == pytest.approx(1.0, abs=2 * h)


def test_distance_rectangle_center():
    dom = pl.rectangle(2.0, 1.0)
    h = 1.0 / 32
    grid, mask = pl.build_grid(dom, h)
    dist = pl.finsler_distance(dom, grid, mask, pl.bilaplacian())
    assert dist.d[grid.ny // 2, grid.nx // 2] == pytest.approx(0.5, abs=2 * h)


def test_distance_anisotropic_directional_factor():
    # along the axis toward the nearest face, d = euclidean / p*(e)
    dom = pl.rectangle(2.0, 2.0)
    h = 1.0 / 32
    coeffs = pl.diagonal(np.array([[16.0, 0.0], [0.0, 1.0]]))
    grid, mask = pl.build_grid(dom, h)
    dist = pl.finsler_distance(dom, grid, mask, coeffs)
    px = pl.dual_metric(coeffs, np.array([1.0, 0.0]))
    iy = grid.ny // 2
    ix = int(round((0.9 - grid.origin[0]) / h))  # (0.9, 0): 0.1 from the face
    assert dist.d[iy, ix] == pytest.approx(0.1 / px, abs=2 * h)


@pytest.mark.parametrize("coeffs, max_err_h", [
    (pl.diagonal(np.diag([16.0, 1.0])), 0.21),
    (pl.product(np.array([[4.0, 1.0], [1.0, 2.0]])), 0.46),
], ids=["diagonal", "product"])
def test_distance_rectangle_exact_field(coeffs, max_err_h):
    # for a constant tensor the distance to a straight face is the Euclidean
    # one over p*(normal), so on the 2 x 1 rectangle
    # d = min((1 - |x|) / p*(e_x), (1/2 - |y|) / p*(e_y)) at every node
    dom = pl.rectangle(2.0, 1.0)
    px = pl.dual_metric(coeffs, np.array([1.0, 0.0]))
    py = pl.dual_metric(coeffs, np.array([0.0, 1.0]))
    mean_err = []
    for h in (1.0 / 16, 1.0 / 32):
        grid, mask = pl.build_grid(dom, h)
        d = pl.finsler_distance(dom, grid, mask, coeffs).interior_values(mask)
        x, y = (mask.restrict(c) for c in grid.meshgrid())
        exact = np.minimum((1.0 - np.abs(x)) / px, (0.5 - np.abs(y)) / py)
        err = np.abs(d - exact)
        mean_err.append(err.mean())
    assert err.max() <= max_err_h * h
    assert mean_err[1] <= 0.5 * mean_err[0]


def test_bilaplacian_matches_euclidean_solver():
    dom = pl.disk(1.0)
    grid, mask = pl.build_grid(dom, 1.0 / 32)
    df = pl.finsler_distance(dom, grid, mask, pl.bilaplacian())
    de = pl.euclidean_from_sdf(dom, grid, mask)
    assert np.max(np.abs(df.d - de.d)) <= 3.0 * grid.h


def test_distance_on_medial_axis_strip():
    # one row of interior nodes on y = 0, all of them seeds on the medial
    # axis, where the central difference of the sdf vanishes
    dom = pl.rectangle(4.0, 0.2)
    grid, mask = pl.build_grid(dom, 0.1)
    dist = pl.finsler_distance(dom, grid, mask, pl.bilaplacian())
    d = dist.interior_values(mask)
    assert len(d) == 39
    assert np.max(np.abs(d - 0.1)) <= 1e-12


def test_equivalence_constants():
    dom = pl.rectangle(2.0, 1.0)
    grid, mask = pl.build_grid(dom, 1.0 / 32)
    de = pl.euclidean_from_sdf(dom, grid, mask)
    c1, c2 = pl.equivalence_constants(de, de, mask)
    assert (c1, c2) == (1.0, 1.0)
    coeffs = pl.product(np.diag([4.0, 1.0]))
    df = pl.finsler_distance(dom, grid, mask, coeffs)
    ds = pl.finsler_distance(dom, grid, mask, pl.bilaplacian())
    c1, c2 = pl.equivalence_constants(df, ds, mask)
    thetas = np.linspace(0, 2 * np.pi, 360, endpoint=False)
    ps = [pl.dual_metric(coeffs, np.array([np.cos(t), np.sin(t)]))
          for t in thetas]
    # distance scales inversely with the directional metric speed
    predicted = (max(ps) / min(ps))
    assert c2 / c1 == pytest.approx(predicted, rel=0.10)


def test_default_n_reg_is_inverse_h():
    dom = pl.disk(1.0)
    grid, mask = pl.build_grid(dom, 1.0 / 32)
    dist = pl.finsler_distance(dom, grid, mask, pl.bilaplacian())
    assert dist.n_reg == 32


def test_eikonal_residual_small():
    dom = pl.disk(1.0)
    h = 1.0 / 32
    grid, mask = pl.build_grid(dom, h)
    coeffs = pl.bilaplacian()
    dist = pl.finsler_distance(dom, grid, mask, coeffs)
    res = pl.eikonal_residual(dist, coeffs, mask)
    de = pl.euclidean_from_sdf(dom, grid, mask).interior_values(mask)
    far = de > 3 * h
    assert np.mean(res[far] <= 5 * h) >= 0.95


def test_refinement_contracts_distance_error():
    dom = pl.disk(1.0)
    errs = []
    for h in (1.0 / 16, 1.0 / 32):
        grid, mask = pl.build_grid(dom, h)
        dist = pl.finsler_distance(dom, grid, mask, pl.bilaplacian())
        exact = pl.euclidean_from_sdf(dom, grid, mask)
        errs.append(np.max(np.abs(
            dist.interior_values(mask) - exact.interior_values(mask))))
    assert errs[1] <= 0.7 * errs[0]


_REFERENCE_ORDERS = [(+1, +1), (+1, -1), (-1, +1), (-1, -1)]


def _reference_distance(dom, grid, mask, coeffs, tol=1e-9):
    """Scalar fast sweeping: row-major Gauss-Seidel in the four orders, one
    node at a time, each upwind pair solved by 60 bisection steps."""
    M = coeffs.M
    h = grid.h
    step = 1.5 * h / finsler._axis_pstar_min(M)
    d = np.where(mask.interior, 1e100, 0.0)
    iy, ix, vals = finsler._seed_boundary_layer(dom, grid, mask, M)
    d[iy, ix] = vals
    free = mask.interior.copy()
    free[iy, ix] = False
    d = np.pad(d, 1, constant_values=1e100)   # d[y + 1, x + 1] is node (y, x)

    def g(Mn, nvx, sgx, nvy, sgy, t):
        gx = sgx * max(t - nvx, 0.0) / h
        gy = sgy * max(t - nvy, 0.0) / h
        s = np.array([gx * gx, gy * gy, gx * gy])
        return max(float(s @ Mn @ s), 0.0) ** 0.25

    def update(y, x):
        best = 1e100
        for nvx, sgx in ((d[y + 1, x], 1.0), (d[y + 1, x + 2], -1.0)):
            for nvy, sgy in ((d[y, x + 1], 1.0), (d[y + 2, x + 1], -1.0)):
                if max(nvx, nvy) >= 1e99:
                    continue
                lo = min(nvx, nvy)
                hi, it = lo + step, 0
                while g(M, nvx, sgx, nvy, sgy, hi) < 1.0 and it < 60:
                    hi, it = lo + 2.0 * (hi - lo), it + 1
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    if g(M, nvx, sgx, nvy, sgy, mid) < 1.0:
                        lo = mid
                    else:
                        hi = mid
                best = min(best, 0.5 * (lo + hi))
        return best

    ny, nx = grid.ny, grid.nx
    change = np.inf
    while change >= tol:
        change = 0.0
        for sy, sx in _REFERENCE_ORDERS:
            for y in (range(ny) if sy > 0 else range(ny - 1, -1, -1)):
                for x in (range(nx) if sx > 0 else range(nx - 1, -1, -1)):
                    if free[y, x]:
                        t = update(y, x)
                        if t < d[y + 1, x + 1]:
                            change = max(change, d[y + 1, x + 1] - t)
                            d[y + 1, x + 1] = t
    return np.where(mask.interior, d[1:-1, 1:-1], 0.0)


@pytest.mark.parametrize("dom, coeffs", [
    (pl.disk(1.0), pl.bilaplacian()),
    (pl.rectangle(2.0, 1.0), pl.diagonal(np.diag([16.0, 1.0]))),
    (pl.rectangle(2.0, 1.0), pl.product(np.array([[4.0, 1.0], [1.0, 2.0]]))),
], ids=["disk_bilaplacian", "rect_aniso", "rect_product"])
def test_diagonal_sweep_matches_scalar_reference(dom, coeffs, monkeypatch):
    grid, mask = pl.build_grid(dom, 1.0 / 8)
    d_ref = _reference_distance(dom, grid, mask, coeffs)
    calls = []
    sweep = finsler._sweep_once
    monkeypatch.setattr(finsler, "_sweep_once",
                        lambda *a: calls.append(1) or sweep(*a))
    dist = pl.finsler_distance(dom, grid, mask, coeffs)
    assert np.max(np.abs(dist.d - d_ref)) <= 1e-12
    assert len(calls) < 4 * (grid.nx + grid.ny)
    # a fixed point: one more pass over every free node decreases none
    dp = np.pad(dist.d, 1, constant_values=finsler._FAR)
    free = np.pad(mask.interior, 1)
    iy, ix, _ = finsler._seed_boundary_layer(dom, grid, mask, coeffs.M)
    free[iy + 1, ix + 1] = False
    C = tuple(coeffs.M[finsler._VOIGT_ROWS, finsler._VOIGT_COLS])
    step = 1.5 * grid.h / finsler._axis_pstar_min(coeffs.M)
    down = sweep(dp, np.flatnonzero(free), C, grid.h, step)
    assert down.size == 0
    assert np.array_equal(dp[1:-1, 1:-1], dist.d)


def test_pass_cap_raises_no_convergence(monkeypatch):
    # a pass that reports every active node as decreased never settles
    dom = pl.disk(1.0)
    grid, mask = pl.build_grid(dom, 1.0 / 8)
    monkeypatch.setattr(finsler, "_sweep_once", lambda dp, active, *a: active)
    with pytest.raises(NoConvergence, match="nodes still active"):
        pl.finsler_distance(dom, grid, mask, pl.bilaplacian())


def test_distance_when_every_node_is_seeded():
    # one row of nodes: every interior node touches the exterior
    dom = pl.rectangle(4.0, 0.2)
    grid, mask = pl.build_grid(dom, 0.1)
    iy, ix, vals = finsler._seed_boundary_layer(dom, grid, mask,
                                                pl.bilaplacian().M)
    assert len(iy) == mask.count
    dist = pl.finsler_distance(dom, grid, mask, pl.bilaplacian())
    assert np.array_equal(dist.d[iy, ix], vals)


def _distinct_entries(coeffs):
    return coeffs.M[finsler._VOIGT_ROWS, finsler._VOIGT_COLS][:, None]


def test_local_solve_two_sided_euclidean():
    h = 0.1
    a = np.array([0.3, 0.3, 0.5, 0.25])
    b = np.array([0.3, 0.35, 0.45, 0.32])   # |a - b| < h: both sides flow in
    sg = np.array([1.0, -1.0, 1.0, -1.0])
    t = finsler._local_solve(_distinct_entries(pl.bilaplacian()), a, sg, b,
                             -sg, h, 1.5 * h)
    exact = 0.5 * (a + b + np.sqrt(2.0 * h * h - (a - b) ** 2))
    assert np.max(np.abs(t - exact)) <= 1e-15


@pytest.mark.parametrize("coeffs", [
    pl.diagonal(np.diag([16.0, 1.0])),
    pl.product(np.array([[4.0, 1.0], [1.0, 2.0]])),
], ids=["diagonal", "product"])
def test_local_solve_one_sided(coeffs):
    h, nv, far = 0.05, 0.2, 5.0   # far neighbour stays above t: no inflow
    C = _distinct_entries(coeffs)
    for axis in (0, 1):
        e = np.eye(2)[axis]
        px = pl.dual_metric(coeffs, e)
        nvs = [np.array([nv]), np.array([far])]
        nvx, nvy = nvs if axis == 0 else nvs[::-1]
        for sg in (1.0, -1.0):
            t = finsler._local_solve(C, nvx, np.array([sg]), nvy,
                                     np.array([-sg]), h, 1.5 * h)
            assert t[0] == pytest.approx(nv + h / px, rel=1e-15)


@pytest.mark.parametrize("dom, h, coeffs", [
    (pl.rectangle(2.0, 1.0), 1.0 / 32,
     pl.product(np.array([[4.0, 1.0], [1.0, 2.0]]))),
    (pl.disk(1.0), 1.0 / 64, pl.bilaplacian()),
], ids=["rect_product", "disk"])
def test_local_solve_is_elementwise(dom, h, coeffs, monkeypatch):
    # a node's value must not depend on which other candidates share its
    # batch: the largest batches of a solve, each candidate solved alone
    batches = []
    solve = finsler._local_solve
    monkeypatch.setattr(finsler, "_local_solve",
                        lambda *a: batches.append(a) or solve(*a))
    grid, mask = pl.build_grid(dom, h)
    pl.finsler_distance(dom, grid, mask, coeffs)
    batches.sort(key=lambda a: len(a[1]))
    for C, nvx, sgx, nvy, sgy, hh, step in batches[-3:]:
        full = solve(C, nvx, sgx, nvy, sgy, hh, step)
        alone = [solve(C, nvx[i:i + 1], sgx[i:i + 1], nvy[i:i + 1],
                       sgy[i:i + 1], hh, step)[0] for i in range(len(nvx))]
        assert np.array_equal(full, alone)


def test_every_local_solve_goes_through_sweep_once():
    # perfbench counts _sweep_once as finsler.sweeps: every batch of local
    # solves is one counted pass
    src = Path(finsler.__file__).resolve().parent
    found = [c for p in sorted(src.glob("*.py"))
             for c in _callers(p, "_local_solve")]
    assert found == [("finsler", "_sweep_once")]
