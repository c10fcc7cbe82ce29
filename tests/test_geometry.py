import ast
import dataclasses
from pathlib import Path

import numpy as np
import pytest

import platelab as pl
from platelab.errors import BandUnresolved, GridTooCoarse
from platelab.geometry import (INTERIOR_TOL, Grid, GridMask, smoothstep,
                               build_cutoff)


def test_disk_sdf_values():
    d = pl.disk(1.0)
    assert d.sdf(0.0, 0.0) == pytest.approx(-1.0)
    assert d.sdf(1.0, 0.0) == pytest.approx(0.0)
    assert d.sdf(3.0, 4.0) == pytest.approx(4.0)
    assert d.inradius == 1.0


def test_rectangle_sdf_values():
    r = pl.rectangle(2.0, 1.0)
    assert r.sdf(0.0, 0.0) == pytest.approx(-0.5)
    assert r.sdf(1.0, 0.0) == pytest.approx(0.0)
    assert r.sdf(2.0, 0.0) == pytest.approx(1.0)
    # corner exterior distance is the Euclidean corner distance
    assert r.sdf(2.0, 1.5) == pytest.approx(np.hypot(1.0, 1.0))


def test_superellipse_sdf_is_signed_and_lipschitz():
    s = pl.superellipse(1.0, 1.0, 4.0)
    assert s.sdf(0.0, 0.0) < 0
    assert abs(s.sdf(1.0, 0.0)) <= 1e-15
    assert s.sdf(2.0, 2.0) > 0
    rng = np.random.default_rng(0)
    p = rng.uniform(-1.5, 1.5, size=(10000, 2))
    q = rng.uniform(-1.5, 1.5, size=(10000, 2))
    dp = s.sdf(p[:, 0], p[:, 1])
    dq = s.sdf(q[:, 0], q[:, 1])
    gap = np.hypot(*(p - q).T)
    assert np.all(np.abs(dp - dq) <= gap + 1e-9)


def test_superellipse_sdf_is_mirror_symmetric_bit_for_bit():
    # the sdf is taken at (|x|, |y|), so each mirror image of a point has
    # the same float distance
    s = pl.superellipse(1.0, 0.6, 4.0)
    x, y = np.random.default_rng(3).uniform(-1.5, 1.5, size=(2, 2000))
    d = s.sdf(x, y)
    for sx, sy in ((-1, 1), (1, -1), (-1, -1)):
        assert np.array_equal(s.sdf(sx * x, sy * y), d)


def _boundary(a, b, p, t):
    """The boundary points (a sgn(c)|c|^(2/p), b sgn(s)|s|^(2/p)) at the
    angles t, c = cos t, s = sin t."""
    c, s = np.cos(t), np.sin(t)
    return (a * np.sign(c) * np.abs(c) ** (2.0 / p),
            b * np.sign(s) * np.abs(s) ** (2.0 / p))


def _level(a, b, p, x, y):
    return np.abs(x / a) ** p + np.abs(y / b) ** p - 1.0


def _polyline_sdf(a, b, p, x, y):
    """Reference: the distance from each point to every segment of a
    2^15-vertex polyline inscribed in the curve, signed by the level set."""
    seg_a = np.column_stack(_boundary(
        a, b, p, np.linspace(0.0, 2.0 * np.pi, 2**15, endpoint=False)))
    seg_d = np.roll(seg_a, -1, axis=0) - seg_a
    seg_len2 = np.sum(seg_d**2, axis=1)
    dist = np.empty(len(x))
    for lo in range(0, len(x), 16):
        q = np.column_stack([x[lo:lo + 16], y[lo:lo + 16]])
        w = q[:, None, :] - seg_a[None, :, :]
        s = np.clip(np.einsum("qsk,sk->qs", w, seg_d) / seg_len2, 0.0, 1.0)
        d2 = np.sum((w - s[..., None] * seg_d[None, :, :]) ** 2, axis=2)
        dist[lo:lo + 16] = np.sqrt(d2.min(axis=1))
    return np.where(_level(a, b, p, x, y) < 0.0, -dist, dist)


@pytest.mark.parametrize("a,b,p", [(1.0, 1.0, 4.0), (2.0, 1.0, 3.0),
                                   (1.5, 0.7, 8.0)])
def test_superellipse_sdf_matches_every_segment(a, b, p):
    # the polyline's chords lie at most 9.4e-9 off the curve (at (2, 1, 3),
    # sampled at 19 points per segment; the gap falls as 1/vertices^2), and
    # two distance functions differ by at most the gap between their sets
    s = pl.superellipse(a, b, p)
    grid, _ = pl.build_grid(s, 1 / 8)
    X, Y = (c.ravel() for c in grid.meshgrid())
    rng = np.random.default_rng(1)
    x = np.concatenate([X, rng.uniform(-2 * a, 2 * a, 300)])
    y = np.concatenate([Y, rng.uniform(-2 * b, 2 * b, 300)])
    d = s.sdf(x, y)
    assert np.max(np.abs(d - _polyline_sdf(a, b, p, x, y))) <= 1e-8
    far = np.abs(d) > 1e-12
    assert np.array_equal(np.sign(d[far]),
                          np.sign(_level(a, b, p, x[far], y[far])))


@pytest.mark.parametrize("a,b,p", [(1.0, 1.0, 4.0), (1.5, 0.7, 8.0),
                                   (2.0, 1.0, 3.0)])
def test_superellipse_sdf_along_the_normal(a, b, p):
    # x0 + delta n, n the outer unit normal at a boundary point x0, lies
    # delta from the curve: for every delta > 0 by convexity, and for
    # -0.01 <= delta < 0 because a disk of radius 0.01 rolls inside the
    # curve (the least radius of curvature is 0.17, at (1.5, 0.7, 8))
    s = pl.superellipse(a, b, p)
    x0, y0 = _boundary(a, b, p,
                       np.random.default_rng(2).uniform(0, 2 * np.pi, 200))
    gx = np.sign(x0) * np.abs(x0 / a) ** (p - 1.0) / a   # grad of the level
    gy = np.sign(y0) * np.abs(y0 / b) ** (p - 1.0) / b   # set, over p
    nx, ny = gx / np.hypot(gx, gy), gy / np.hypot(gx, gy)
    for delta in (1e-10, 1e-8, 1e-6, 1e-4, 1e-2):
        for sd in (delta, -delta):
            d = s.sdf(x0 + sd * nx, y0 + sd * ny)
            assert np.max(np.abs(d - sd)) <= 1e-14, (delta, sd)


def test_build_grid_disk_h_half_count_nine():
    # build_grid's lattice for the unit disk at h = 1/2 (bbox plus a halo
    # ring) holds 9 interior nodes, below the 25 that build_grid accepts
    dom = pl.disk(1.0)
    grid = Grid(h=0.5, nx=7, ny=7)
    X, Y = grid.meshgrid()
    mask = GridMask(dom.sdf(X, Y) < -INTERIOR_TOL * grid.h)
    assert mask.count == 9
    xs, ys = (mask.restrict(c) for c in grid.meshgrid())
    assert np.all(xs**2 + ys**2 < 1.0)
    with pytest.raises(GridTooCoarse, match="only 9 interior nodes"):
        pl.build_grid(dom, 0.5)


@pytest.mark.parametrize("n", [40, 72, 96])
def test_lattice_is_centred_and_mirror_exact(n):
    # node (iy, ix) at h * (ix - (nx - 1)/2, iy - (ny - 1)/2): the
    # coordinates are exactly antisymmetric at every h, dyadic or not
    grid, _ = pl.build_grid(pl.rectangle(2.0, 1.0), 1.0 / n)
    assert [f.name for f in dataclasses.fields(Grid)] == ["h", "nx", "ny"]
    assert (grid.nx, grid.ny) == (2 * n + 3, n + 3)
    X, Y = grid.meshgrid()
    assert np.array_equal(X, -X[:, ::-1]) and np.array_equal(Y, -Y[::-1])
    assert X[0, grid.nx // 2] == 0.0 and Y[grid.ny // 2, 0] == 0.0


def test_build_grid_too_coarse():
    with pytest.raises(GridTooCoarse):
        pl.build_grid(pl.rectangle(2.0, 1.0), 10.0)
    with pytest.raises(GridTooCoarse):
        pl.build_grid(pl.disk(1.0), 0.5)  # 9 nodes < default threshold


def test_build_grid_count_tracks_area():
    grid, mask = pl.build_grid(pl.disk(1.0), 1.0 / 64)
    expect = np.pi / (1.0 / 64) ** 2
    assert abs(mask.count - expect) / expect < 0.01


@pytest.mark.parametrize("n", [40, 48, 96, 98])
def test_rectangle_boundary_nodes_are_not_dofs(n):
    # the nodes on x = +-1 and y = +-1/2 are no dofs; at h = 1/98 they come
    # out 1 ulp inside (h * 98 and h * 49 round down)
    _, mask = pl.build_grid(pl.rectangle(2.0, 1.0), 1.0 / n)
    assert mask.count == (2 * n - 1) * (n - 1)


@pytest.mark.parametrize("dom, n", [
    (pl.disk(1.0), 40), (pl.disk(1.0), 48), (pl.disk(1.0), 49),
    (pl.disk(1.0), 96), (pl.superellipse(1.5, 0.7, 8.0), 96)],
    ids=["40", "48", "49", "96", "superellipse-96"])
def test_disk_has_no_dof_on_the_circle(dom, n):
    # the axis nodes (+-1, 0) and (0, +-1) lie on the circle (1 ulp inside
    # at h = 1/49), and (+-1.5, 0) on the superellipse; a dof's distance is
    # taken from the level set f = |x/a|^p + |y/b|^p - 1 (a = b = 1, p = 2
    # for the unit circle) as -f / |grad f|, not from the sdf under test
    a, b, p = (dom.params.get("a", 1.0), dom.params.get("b", 1.0),
               dom.params.get("p", 2.0))
    grid, mask = pl.build_grid(dom, 1.0 / n)
    x, y = (mask.restrict(c) for c in grid.meshgrid())
    grad = p * np.hypot(np.abs(x / a) ** (p - 1.0) / a,
                        np.abs(y / b) ** (p - 1.0) / b)
    assert np.all(-_level(a, b, p, x, y) >= 1e-6 * grid.h * grad)


def test_rectangle_lambda1_increases_under_refinement():
    # zero extension puts the clamped wall outside the boundary, so the
    # bilaplacian's lowest eigenvalue rises to the continuum value in h;
    # boundary rows taken as dofs at N = 48 and 96 broke the order
    lam = []
    for n in (32, 48, 64, 96):
        grid, mask = pl.build_grid(pl.rectangle(2.0, 1.0), 1.0 / n)
        Q0 = pl.assemble_Q0(grid, mask)
        mass = pl.assemble_weighted(grid, mask, None, "mass", 0.0, 1)
        lam.append(pl.lowest_eigenpairs(Q0, mass, m=1).values[0])
    assert np.all(np.diff(lam) > 0.0), lam


def test_dof_index_is_row_major():
    grid, mask = pl.build_grid(pl.disk(1.0), 1.0 / 16)
    assert [f.name for f in dataclasses.fields(GridMask)] == ["interior"]
    assert np.array_equal(mask.nodes, np.flatnonzero(mask.interior))
    again = GridMask(mask.interior)
    assert np.array_equal(again.interior, mask.interior)
    assert np.array_equal(again.nodes, mask.nodes)
    assert again.count == mask.count == mask.nodes.size
    # the gather reads lattice arrays with trailing axes too
    a = np.arange(grid.n_nodes * 4.0).reshape(grid.ny, grid.nx, 2, 2)
    iy, ix = np.nonzero(mask.interior)
    assert np.array_equal(mask.restrict(a), a[iy, ix])
    assert np.array_equal(mask.restrict(a[..., 0, 0]), a[iy, ix, 0, 0])


def test_mirror_maps_each_dof_to_its_image_node():
    grid, mask = pl.build_grid(pl.disk(1.0), 1.0 / 16)
    iy, ix = np.divmod(mask.nodes, grid.nx)
    for axis, image in ((0, (grid.ny - 1 - iy, ix)),
                        (1, (iy, grid.nx - 1 - ix))):
        p = mask.mirror(axis)
        assert np.array_equal(np.divmod(mask.nodes[p], grid.nx), image)
        assert np.array_equal(p[p], np.arange(mask.count))
    X, _ = grid.meshgrid()
    half = mask.within(X < 0.5)
    assert half.count < mask.count
    assert half.mirror(1) is None and half.mirror(0) is not None


# the names of a second, inverse pair of dof <-> node maps
_INDEX_MAPS = {"_of_".join(pair) for pair in (("node", "dof"), ("dof", "node"))}


def _dof_layout_uses(path):
    """(module, name) for every use of a name in ``_INDEX_MAPS`` and every
    ``GridMask(...)`` call in one source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        name = getattr(node, "attr", getattr(node, "id", None))
        if name in _INDEX_MAPS:
            found.append((path.stem, name))
        if isinstance(node, ast.Call):
            f = node.func
            if getattr(f, "attr", getattr(f, "id", None)) == "GridMask":
                found.append((path.stem, "GridMask"))
    return found


def test_only_geometry_knows_the_dof_layout():
    src = Path(pl.geometry.__file__).resolve().parent
    found = [u for p in sorted(src.glob("*.py")) for u in _dof_layout_uses(p)]
    # the two masks: build_grid's and GridMask.within's, through which
    # eroded_mask and principal_submatrix restrict a mask
    assert found == [("geometry", "GridMask")] * 2


def test_mask_monotone_under_erosion():
    grid, mask1 = pl.build_grid(pl.disk(0.9), 1.0 / 32)
    grid2, mask2 = pl.build_grid(pl.disk(0.8), 1.0 / 32)
    # same anchored lattice covers both; compare on the overlap
    X1, Y1 = grid.meshgrid()
    inner2 = pl.disk(0.8).sdf(X1, Y1) < 0
    assert np.all(mask1.interior[inner2])


def test_smoothstep_midpoint_and_clamp():
    assert smoothstep(0.5) == pytest.approx(0.5)
    assert smoothstep(-1.0) == 0.0
    assert smoothstep(2.0) == 1.0


def test_build_cutoff_profile():
    dom = pl.disk(1.0)
    grid, mask = pl.build_grid(dom, 1.0 / 32)
    dist = pl.euclidean_from_sdf(dom, grid, mask)
    eps = 0.2
    tau = build_cutoff(dist, eps)
    X, Y = grid.meshgrid()
    d = -dom.sdf(X, Y)
    assert np.all(tau[(d > 0) & (d <= eps)] == 0.0)
    assert np.all(tau[d >= 2 * eps] == 1.0)
    mid = np.abs(d - 1.5 * eps) < 1e-9
    if mid.any():
        assert np.allclose(tau[mid], 0.5)


def test_build_cutoff_band_unresolved():
    dom = pl.disk(1.0)
    grid, mask = pl.build_grid(dom, 1.0 / 16)
    dist = pl.euclidean_from_sdf(dom, grid, mask)
    for eps in (2.0 * grid.h, float("nan")):
        with pytest.raises(BandUnresolved):
            build_cutoff(dist, eps)

