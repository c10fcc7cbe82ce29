"""Analytic domains, uniform grids, interior masks and C2 cutoffs.

Domains carry an exact signed Euclidean distance function (negative inside)
and a support function; ``_support_distance``, the minimum over the normal
behind the superellipse's sdf and ``finsler_distance``, needs no scipy.
Clamped boundary conditions are realized by zero extension in
``difference_ops``: every stencil read outside the interior mask returns 0,
which enforces u = 0 and, at stencil order, du/dn = 0 on the boundary.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import BandUnresolved, GridTooCoarse

# A node is interior when sdf < -INTERIOR_TOL * h.  Node coordinates are
# origin + h * arange, so a node on a grid-aligned boundary can come out
# 1 ulp inside; the tolerance keeps it out, far below the genuine
# near-boundary nodes (0.01h and more on the disk).
INTERIOR_TOL = 1e-9
# build_grid refuses a grid with fewer interior nodes than this
MIN_INTERIOR = 25


@dataclass(frozen=True)
class AnalyticDomain:
    """A convex 2D domain described by an exact signed distance function.

    ``sdf`` is vectorized over coordinate arrays and 1-Lipschitz in the
    Euclidean norm; ``support(c, s)`` = max over the domain of c x + s y for
    unit (c, s); ``bbox`` is (xmin, xmax, ymin, ymax) containing {sdf <= 0}.
    """

    kind: str
    params: dict
    sdf: Callable[[np.ndarray, np.ndarray], np.ndarray]
    support: Callable[[np.ndarray, np.ndarray], np.ndarray]
    bbox: tuple
    inradius: float


def disk(radius: float) -> AnalyticDomain:
    r = float(radius)
    if r <= 0:
        raise ValueError("disk radius must be positive")

    def sdf(x, y):
        return np.hypot(x, y) - r

    return AnalyticDomain("disk", {"radius": r}, sdf, lambda c, s: r + 0.0 * c,
                          (-r, r, -r, r), r)


def rectangle(width: float, height: float) -> AnalyticDomain:
    w, ht = float(width), float(height)
    if w <= 0 or ht <= 0:
        raise ValueError("rectangle sides must be positive")
    hx, hy = w / 2.0, ht / 2.0

    def sdf(x, y):
        qx = np.abs(x) - hx
        qy = np.abs(y) - hy
        outside = np.hypot(np.maximum(qx, 0.0), np.maximum(qy, 0.0))
        inside = np.minimum(np.maximum(qx, qy), 0.0)
        return outside + inside

    return AnalyticDomain("rectangle", {"width": w, "height": ht}, sdf,
                          lambda c, s: hx * np.abs(c) + hy * np.abs(s),
                          (-hx, hx, -hy, hy), min(hx, hy))


def superellipse(a: float, b: float, p: float) -> AnalyticDomain:
    """|x/a|^p + |y/b|^p = 1 boundary; support ||(a c, b s)||_q with
    1/p + 1/q = 1 (Hoelder); sdf from the support, by ``_support_distance``."""
    a, b, p = float(a), float(b), float(p)
    if a <= 0 or b <= 0 or p < 2:
        raise ValueError("superellipse needs a, b > 0 and exponent p >= 2")

    def support(c, s):
        return np.linalg.norm([a * c, b * s], p / (p - 1.0), axis=0)

    def sdf(x, y):
        return -_support_distance(support, lambda c, s: 1.0, x, y)

    return AnalyticDomain("superellipse", {"a": a, "b": b, "p": p}, sdf,
                          support, (-a, a, -b, b), min(a, b))


# _BLOCK bounds the (points, _SCAN) scan arrays; _R is the golden ratio - 1
_SCAN, _GOLDEN, _BLOCK, _R = 64, 40, 4096, (5 ** 0.5 - 1) / 2


def _golden(support, pstar, x, y, t, best):
    """min(best, the objective at (x, y) after golden steps beside t)."""
    def f(theta):
        c, s = np.cos(theta), np.sin(theta)
        return (support(c, s) - c * x - s * y) / pstar(c, s)

    a, L = t - 2.0 * np.pi / _SCAN, 4.0 * np.pi / _SCAN   # bracket [a, a + L]
    f1, f2 = f(a + (1.0 - _R) * L), f(a + _R * L)
    for _ in range(_GOLDEN):
        left = f1 < f2      # keep the lower point; all brackets shrink alike
        a = np.where(left, a, a + (1.0 - _R) * L)
        L *= _R
        fn = f(a + np.where(left, 1.0 - _R, _R) * L)
        f1, f2 = np.where(left, fn, f2), np.where(left, f1, fn)
    return np.minimum(best, np.minimum(f1, f2))   # no dropped point was lower


def _support_distance(support, pstar, x, y):
    """min over unit nu of (support(nu) - nu . (x, y)) / pstar(nu) at arrays
    of any broadcast shape; with pstar = 1, minus the sdf of the convex set
    with that support, inside and outside (Schneider, Convex Bodies, 1.7).
    Per block of _BLOCK points: a scan of _SCAN angles, then golden-section
    steps at the best sample and at the second lowest local minimum of the
    scan where it, less the largest step between samples, is below that."""
    shape = np.broadcast(x, y).shape
    x, y = (np.broadcast_to(a, shape).ravel() for a in (x, y))
    t = 2.0 * np.pi * np.arange(_SCAN) / _SCAN
    c, s = np.cos(t), np.sin(t)
    B = np.stack([support(c, s), c, s]) / pstar(c, s)
    d = np.empty(x.size)
    for i in range(0, x.size, _BLOCK):
        xb, yb = x[i:i + _BLOCK], y[i:i + _BLOCK]
        F = np.column_stack([np.ones_like(xb), -xb, -yb]) @ B  # [point, angle]
        best = F.min(axis=1)
        step = np.roll(F, -1, axis=1) - F          # F[k + 1] - F[k]
        lows = (step >= 0.0) & np.roll(step <= 0.0, 1, axis=1)
        F2 = np.where(lows & (F > best[:, None]), F, np.inf)  # other minima
        db = _golden(support, pstar, xb, yb, t[F.argmin(axis=1)], best)
        again = F2.min(axis=1) - np.abs(step).max(axis=1) < db
        db[again] = _golden(support, pstar, xb[again], yb[again],
                            t[F2[again].argmin(axis=1)], db[again])
        d[i:i + _BLOCK] = db
    return d.reshape(shape)


@dataclass(frozen=True)
class Grid:
    """Uniform node lattice: node(i, j) = origin + (j*h, i*h)."""

    h: float
    origin: tuple
    nx: int
    ny: int

    def meshgrid(self):
        return np.meshgrid(self.origin[0] + self.h * np.arange(self.nx),
                           self.origin[1] + self.h * np.arange(self.ny))

    @property
    def n_nodes(self) -> int:
        return self.nx * self.ny


@dataclass(frozen=True)
class GridMask:
    """Interior nodes (sdf < -INTERIOR_TOL * h); they are the unknowns (dofs).

    Dof k sits at lattice node ``nodes[k]``, the raveled index iy * nx + ix;
    dofs run in row-major lattice order.  ``restrict`` gathers a lattice
    array to dof values.
    """

    interior: np.ndarray          # bool, shape (ny, nx)

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.flatnonzero(self.interior)

    @property
    def count(self) -> int:
        return self.nodes.size

    def restrict(self, a: np.ndarray) -> np.ndarray:
        """Dof values of a lattice array of shape (ny, nx, ...)."""
        return a.reshape((self.interior.size,) + a.shape[2:])[self.nodes]


def _stencils(h: float) -> dict:
    """name -> the (dy, dx, weight) taps of each centred stencil, in raveled
    lattice order; a weight is a product of 1/h^2 or 1/2h, rounded once."""
    a, c = 1.0 / h**2, 1.0 / (2 * h)
    return {"Dxx": ((0, -1, a), (0, 0, -2 * a), (0, 1, a)),
            "Dyy": ((-1, 0, a), (0, 0, -2 * a), (1, 0, a)),
            "Dxy": ((-1, -1, c * c), (-1, 1, -c * c),
                    (1, -1, -c * c), (1, 1, c * c)),
            "Gx": ((0, -1, -c), (0, 1, c)),
            "Gy": ((-1, 0, -c), (1, 0, c))}


def difference_ops(grid: Grid, mask: GridMask,
                   names=("Dxx", "Dyy", "Dxy", "Gx", "Gy"), rows=None):
    """The centred difference operators ``names`` as CSR, with a row per
    lattice node in ``rows`` (raveled iy * nx + ix; every node when None)
    and a column per dof: the one place the stencils are written.  A read
    off the mask or off the lattice is 0, the zero extension that is the
    clamped closure.

    scipy.sparse is imported here, on the first call: ``geometry`` itself
    loads no scipy, so the distance and config paths start without it."""
    import scipy.sparse as sp

    rows = np.arange(grid.n_nodes) if rows is None else np.asarray(rows)
    iy, ix = np.divmod(rows, grid.nx)
    # the dof at each lattice node; -1 off the mask and on a ring around it
    dof = np.full((grid.ny + 2, grid.nx + 2), -1)
    dof[1:-1, 1:-1][mask.interior] = np.arange(mask.count)
    stencils = _stencils(grid.h)
    ops = []
    for name in names:
        dy, dx, w = map(np.array, zip(*stencils[name]))
        cols = dof[iy[:, None] + 1 + dy, ix[:, None] + 1 + dx]
        keep = cols >= 0
        indptr = np.concatenate(([0], np.cumsum(keep.sum(axis=1))))
        ops.append(sp.csr_matrix(
            (np.broadcast_to(w, cols.shape)[keep], cols[keep], indptr),
            shape=(rows.size, mask.count)))
    return tuple(ops)


def hessian_norm2(ops, f: np.ndarray) -> np.ndarray:
    """f_xx^2 + f_yy^2 + 2 f_xy^2 of the dof vector f under ``ops`` =
    (Dxx, Dyy, Dxy, ...): the (1, 1, 2) Hessian norm, squared."""
    Dxx, Dyy, Dxy = ops[:3]
    return (Dxx @ f) ** 2 + (Dyy @ f) ** 2 + 2.0 * (Dxy @ f) ** 2


def build_grid(domain: AnalyticDomain, h: float):
    """Lattice covering the bbox (one halo ring) plus the interior mask."""
    if h <= 0:
        raise ValueError("grid spacing must be positive")
    xmin, xmax, ymin, ymax = domain.bbox
    i0 = int(np.floor(xmin / h)) - 1
    i1 = int(np.ceil(xmax / h)) + 1
    j0 = int(np.floor(ymin / h)) - 1
    j1 = int(np.ceil(ymax / h)) + 1
    nx, ny = i1 - i0 + 1, j1 - j0 + 1
    if nx < 3 or ny < 3:
        raise GridTooCoarse("fewer than 3 nodes per axis")
    grid = Grid(h=float(h), origin=(i0 * h, j0 * h), nx=nx, ny=ny)
    X, Y = grid.meshgrid()
    interior = domain.sdf(X, Y) < -INTERIOR_TOL * grid.h
    mask = GridMask(interior)
    if mask.count < MIN_INTERIOR:
        raise GridTooCoarse(
            f"only {mask.count} interior nodes (need {MIN_INTERIOR})")
    return grid, mask


def eroded_mask(dist, eps: float) -> GridMask:
    """The nodes with d > eps under the distance ``dist``, with
    ``build_grid``'s rounding tolerance: the mask eroded by eps."""
    return GridMask(dist.d > eps + INTERIOR_TOL * dist.grid.h)


def smoothstep(t):
    """Quintic smoothstep 6t^5 - 15t^4 + 10t^3, clamped to [0, 1]; C2 at both ends."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def build_cutoff(dist, eps: float) -> np.ndarray:
    """The (ny, nx) samples on ``dist.grid`` of the C2 cutoff
    tau = smoothstep((d - eps)/eps): 0 where d <= eps, 1 where d >= 2*eps."""
    eps, h = float(eps), dist.grid.h
    if not eps >= 4.0 * h:
        raise BandUnresolved(f"eps={eps} < 4h={4 * h}")
    d = dist.d
    tau = smoothstep((d - eps) / eps)
    return np.where(d > 0.0, tau, 0.0)
