import numpy as np
import pytest

import platelab as pl
from platelab import finsler
from platelab.errors import NegativeQuartic


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
    ix = grid.nx // 2 + int(round(0.9 / h))  # (0.9, 0): 0.1 from the face
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
    for h in (1.0 / 16, 1.0 / 32):
        grid, mask = pl.build_grid(dom, h)
        d = pl.finsler_distance(dom, grid, mask, coeffs).interior_values()
        x, y = (mask.restrict(c) for c in grid.meshgrid())
        exact = np.minimum((1.0 - np.abs(x)) / px, (0.5 - np.abs(y)) / py)
        err = np.abs(d - exact)
        assert err.max() <= max_err_h * h
        assert err.max() <= 1e-12


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
    d = dist.interior_values()
    assert len(d) == 39
    assert np.max(np.abs(d - 0.1)) <= 1e-12


def test_equivalence_constants():
    dom = pl.rectangle(2.0, 1.0)
    grid, mask = pl.build_grid(dom, 1.0 / 32)
    de = pl.euclidean_from_sdf(dom, grid, mask)
    c1, c2 = pl.equivalence_constants(de, de)
    assert (c1, c2) == (1.0, 1.0)
    eroded = pl.DistanceField(grid, pl.GridMask(de.d > 0.1), de.d)
    with pytest.raises(ValueError, match="different masks"):
        pl.equivalence_constants(de, eroded)
    coeffs = pl.product(np.diag([4.0, 1.0]))
    df = pl.finsler_distance(dom, grid, mask, coeffs)
    ds = pl.finsler_distance(dom, grid, mask, pl.bilaplacian())
    c1, c2 = pl.equivalence_constants(df, ds)
    thetas = np.linspace(0, 2 * np.pi, 360, endpoint=False)
    ps = [pl.dual_metric(coeffs, np.array([np.cos(t), np.sin(t)]))
          for t in thetas]
    # distance scales inversely with the directional metric speed
    predicted = (max(ps) / min(ps))
    assert c2 / c1 == pytest.approx(predicted, rel=0.10)


def test_eikonal_residual_small():
    dom = pl.disk(1.0)
    h = 1.0 / 32
    grid, mask = pl.build_grid(dom, h)
    coeffs = pl.bilaplacian()
    dist = pl.finsler_distance(dom, grid, mask, coeffs)
    res = pl.eikonal_residual(dist, coeffs)
    de = pl.euclidean_from_sdf(dom, grid, mask).interior_values()
    far = de > 3 * h
    assert np.mean(res[far] <= 5 * h) >= 0.95


def test_refinement_contracts_distance_error():
    # the distance is exact on every grid, so the error is rounding
    dom = pl.disk(1.0)
    for h in (1.0 / 16, 1.0 / 32):
        grid, mask = pl.build_grid(dom, h)
        dist = pl.finsler_distance(dom, grid, mask, pl.bilaplacian())
        exact = pl.euclidean_from_sdf(dom, grid, mask)
        assert np.max(np.abs(dist.interior_values()
                             - exact.interior_values())) <= 1e-12


def test_distance_superellipse_matches_sdf():
    dom = pl.superellipse(1.0, 1.0, 4.0)
    grid, mask = pl.build_grid(dom, 1.0 / 32)
    d = pl.finsler_distance(dom, grid, mask, pl.bilaplacian())
    de = pl.euclidean_from_sdf(dom, grid, mask)
    assert np.max(np.abs(d.d - de.d)) <= 1e-12


@pytest.mark.parametrize("n", [32, 64])
def test_bilaplacian_equivalence_constants_are_one_on_superellipse(n):
    # p* = |xi|, so d / d_Euclid = 1 at every dof, even the nearest to the
    # boundary (8.4e-4 and 7.5e-4 away), where rounding weighs most
    dom = pl.superellipse(1.0, 0.7, 4.0)
    grid, mask = pl.build_grid(dom, 1.0 / n)
    c1, c2 = pl.equivalence_constants(
        pl.finsler_distance(dom, grid, mask, pl.bilaplacian()),
        pl.euclidean_from_sdf(dom, grid, mask))
    assert abs(c1 - 1.0) <= 1e-12 and abs(c2 - 1.0) <= 1e-12


@pytest.mark.parametrize("dom", [pl.disk(1.0), pl.rectangle(2.0, 1.0),
                                 pl.superellipse(1.0, 0.7, 4.0)],
                         ids=["disk", "rectangle", "superellipse"])
def test_distance_scales_with_the_operator(dom):
    # p* -> s^(1/4) p* under M -> s M, so d -> s^(-1/4) d
    coeffs = pl.product(np.array([[4.0, 1.0], [1.0, 2.0]]))
    scaled = finsler.CoefficientField("scaled", 3.0 * coeffs.M)
    grid, mask = pl.build_grid(dom, 1.0 / 16)
    d = pl.finsler_distance(dom, grid, mask, coeffs).d
    ds = pl.finsler_distance(dom, grid, mask, scaled).d
    assert np.max(np.abs(ds - 3.0 ** -0.25 * d)) <= 1e-15


def test_distance_finds_the_lower_basin():
    # on this superellipse some nodes have two local minima over the normal
    # angle, and the best scan sample lies in the higher one: golden-section
    # steps around it alone stop 0.09h above the distance.  Every value of
    # the objective bounds d from above, so d is never above a dense scan,
    # and it is below that scan by at most the scan's own resolution error.
    dom = pl.superellipse(1.0, 0.7, 4.0)
    coeffs = pl.product(np.array([[4.0, 1.0], [1.0, 2.0]]))
    h = 1.0 / 64
    grid, mask = pl.build_grid(dom, h)
    d = pl.finsler_distance(dom, grid, mask, coeffs).interior_values()
    t = 2.0 * np.pi * np.arange(4096) / 4096
    c, s = np.cos(t), np.sin(t)
    p = finsler.quartic_symbol(coeffs.M, c, s) ** 0.25
    x, y = (mask.restrict(a) for a in grid.meshgrid())
    scan = np.concatenate([
        ((dom.support(c, s) - np.outer(xb, c) - np.outer(yb, s)) / p).min(1)
        for xb, yb in zip(np.array_split(x, 16), np.array_split(y, 16))])
    assert np.max(d - scan) <= 1e-13 * h
    assert np.max(scan - d) <= 1e-3 * h


def test_distance_degenerate_symbol_raises():
    # q = xi_x^4 vanishes on the y axis: the operator is not elliptic
    deg = finsler.CoefficientField("deg", np.diag([1.0, 0.0, 0.0]))
    dom = pl.disk(1.0)
    grid, mask = pl.build_grid(dom, 1.0 / 8)
    with pytest.raises(NegativeQuartic, match="degenerates"):
        pl.finsler_distance(dom, grid, mask, deg)
