"""End-to-end numerical checks of the boundary-decay machinery.

Covers: Hardy-Rellich constant estimation (plain, via generalized pencils
against singular-weight mass forms, and weak, as the n -> inf limit of a
fitted law), the weighted boundary-decay
integrals against ||Hu|| ||H^(a/2)u||, the form inequality
Q(d_n^-a u) <= k Q(u, d_n^-2a u) + k' ||u||^2 on finite witness sets, and its
stability under coefficient perturbations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .assembly import (FormMatrix, assemble_weighted, dof_difference_ops,
                       interior_difference_ops)
from .errors import AlphaOutOfRange, BoundViolated
from .experiments import default_n_sweep
from .finsler import DistanceField
from .geometry import Grid, GridMask, derivative_norms2, smoothstep
from .spectral import Spectrum, factor, lowest_eigenpairs

if TYPE_CHECKING:  # a run-time import ahead of .assembly costs 0.4 MB of RSS
    from scipy.sparse.linalg import LinearOperator

STABILIZATION_INCREMENT = 0.05  # top-two-n relative increment threshold
WEAK_STABILITY_TOL = 0.02  # weak pair: leave-one-out relative difference


def k_alpha_ref(alpha: float) -> float:
    """k(a) = 9 / ((1 - 4a^2)(9 - 4a^2)), the sharp inflation constant."""
    a2 = alpha * alpha
    return 9.0 / ((1.0 - 4.0 * a2) * (9.0 - 4.0 * a2))


def gamma_alpha(alpha: float) -> float:
    """gamma(a) = (40 a^2 - 16 a^4) / 9; lies in (0, 1] for a in (0, 1/2]."""
    a2 = alpha * alpha
    return (40.0 * a2 - 16.0 * a2 * a2) / 9.0


def cross_term_bound(c2: float, A: float, B: float) -> float:
    """Closed-form bound 3 (1 + c2^2/A + (9/16) c2^4/B) on the cross constant."""
    return 3.0 * (1.0 + c2**2 / A + (9.0 / 16.0) * c2**4 / B)


def _n_levels(n_sweep: Optional[Sequence[int]], h: float) -> list:
    """The regularization levels n, sorted and distinct; ``default_n_sweep``
    when None.  Raises ValueError for n < 1: d + 1/n regularizes d only
    for n >= 1."""
    ns = default_n_sweep(h) if n_sweep is None else sorted(
        set(int(n) for n in n_sweep))
    if not ns or ns[0] < 1:
        raise ValueError(f"n_sweep {ns} needs n >= 1")
    return ns


def _fit_log_law(points: Sequence[tuple]) -> tuple:
    """(c_inf, rms residual) of the least-squares fit of
    c(n) = c_inf + C / (log n + b)^2 to the (n, c) points, in any order.

    For a fixed b > -log(min n) the fit is linear in (c_inf, C).  The
    residual is minimized over u = b + log(min n) on a geometric grid of
    [1e-3, 1e3], refined around its minimum.  Needs three or more
    distinct n; with three the law interpolates them.
    """
    ns, c = np.array(points, dtype=float).T
    t = np.log(ns)

    def fits(u):
        x = (t - t.min() + u[:, None]) ** -2.0
        xc = x - x.mean(axis=1, keepdims=True)
        slope = xc @ (c - c.mean()) / np.einsum("ij,ij->i", xc, xc)
        c_inf = c.mean() - slope * x.mean(axis=1)
        sse = ((c_inf[:, None] + slope[:, None] * x - c) ** 2).sum(axis=1)
        return sse, c_inf

    u = np.geomspace(1e-3, 1e3, 61)
    for _ in range(8):
        sse, c_inf = fits(u)
        k = int(np.argmin(sse))
        best = (float(c_inf[k]), math.sqrt(float(sse[k]) / len(c)))
        u = np.geomspace(u[max(k - 1, 0)], u[min(k + 1, len(u) - 1)], 61)
    return best


@dataclass(frozen=True)
class HardyReport:
    kind: str                     # hardy_grad | rellich_mass | rellich_grad
    constant_hat: float           # plain pencil minimum at the largest n
    n_sweep: tuple                # ((n, constant_hat), ...)
    weak_pair: Optional[tuple]    # (c_inf, rms residual) of the fit, or None
    # always (); kept only for its two readers, perfbench/spans.py:_weak_hook
    # and perfbench/checks.py:check_hardy
    weak_sweep: tuple = ()
    weak_stabilized: bool = False  # every leave-one-out c_inf agrees


_HARDY_POWERS = {"hardy_grad": ("mass", 2.0),
                 "rellich_mass": ("mass", 4.0),
                 "rellich_grad": ("grad", 2.0)}


def estimate_hardy_constant(A: FormMatrix, grid: Grid, mask: GridMask,
                            dist: DistanceField, kind: str,
                            n_sweep: Optional[Sequence[int]] = None, *,
                            seed: int = 42,
                            OPinv: Optional[LinearOperator] = None
                            ) -> HardyReport:
    """Best-constant estimates for the Hardy-Rellich pencils.

    constant_hat(n) = min generalized eigenvalue of (A, W_n), all n through
    one LU of A.  ``OPinv`` is that LU, ``factor(A)``, made here when None,
    so that pencils with the same A share one (both Rellich pencils read
    Q0).  A grad weight W_n reads only the dof rows of Gx and Gy, built
    once for the sweep, after the LU.

    The weak (boundary) constant is the limit n -> inf of the law
    c(n) = c_inf + C / (log n + b)^2 of the Euler profile
    t^(1/2) sin(k log t) (Brezis-Marcus 1997; Marcus-Mizel-Pinchover 1998),
    fitted to the sweep by least squares: weak_pair = (c_inf, rms
    residual), None with fewer than three levels.  weak_stabilized holds
    when, with four or more levels, the fit without any one level gives a
    c_inf within WEAK_STABILITY_TOL of c_inf, relative.  The fit is only
    as good as the sweep: on a grid where c(n) carries a large grid error
    c_inf reads that error, not the weak constant.
    """
    if kind not in _HARDY_POWERS:
        raise ValueError(f"unknown Hardy kind {kind!r}")
    order, power = _HARDY_POWERS[kind]
    n_sweep = _n_levels(n_sweep, grid.h)

    if OPinv is None:
        OPinv = factor(A)
    rows = None
    if order == "grad":  # the dof rows of Gx and Gy, once for the sweep
        rows = interior_difference_ops(
            grid, mask, ops=dof_difference_ops(grid, mask)[3:])
    sweep = []
    for n in n_sweep:
        W = assemble_weighted(grid, mask, dist, order, power, n, rows=rows)
        spec = lowest_eigenpairs(A, W, m=1, seed=seed, OPinv=OPinv)
        sweep.append((n, float(spec.values[0])))

    weak_pair = None
    weak_stabilized = False
    if len(sweep) >= 3:
        weak_pair = _fit_log_law(sweep)
        c_inf = weak_pair[0]
        weak_stabilized = len(sweep) >= 4 and all(
            abs(_fit_log_law(sweep[:i] + sweep[i + 1:])[0] - c_inf)
            <= WEAK_STABILITY_TOL * abs(c_inf) for i in range(len(sweep)))
    return HardyReport(kind=kind, constant_hat=sweep[-1][1],
                       n_sweep=tuple(sweep), weak_pair=weak_pair,
                       weak_stabilized=weak_stabilized)


@dataclass(frozen=True)
class DecayReport:
    alpha: float
    lhs: float                    # weighted sum at the largest n
    rhs: float                    # ||Hu|| ||H^(a/2)u|| for the eigenvector
    c_hat: float
    n_sweep: tuple                # ((n, lhs), ...)
    blowup: bool
    flagged_alpha: bool           # alpha >= 1/2, blow-up demonstration regime


def verify_decay(spec: Spectrum, u_index: int, alpha: float,
                 dist: DistanceField, grid: Grid, mask: GridMask,
                 n_sweep: Optional[Sequence[int]] = None, *,
                 ops=None) -> DecayReport:
    """Weighted boundary integrals of an eigenfunction vs the spectral bound.

    lhs = integral(|hess u|^2 d_n^-2a + |grad u|^2 d_n^-(2+2a)
    + u^2 d_n^-(4+2a)); rhs = lambda^(1+a/2) for a normalized eigenvector.
    ``ops`` is ``interior_difference_ops(grid, mask)``, built here when
    None, so that a sweep over alphas builds it once.
    """
    if not (0.0 < alpha < 1.0):
        raise AlphaOutOfRange(f"alpha={alpha} outside (0, 1)")
    flagged = alpha >= 0.5
    n_sweep = _n_levels(n_sweep, grid.h)
    u = spec.vectors[:, u_index]
    lam = float(spec.values[u_index])
    nrm2 = spec.b_inner(u, u)
    if ops is None:
        ops = interior_difference_ops(grid, mask)
    grad2, hess2 = derivative_norms2(ops, u)
    d = dist.interior_values(mask)
    sweep = []
    for n in n_sweep:
        dn = d + 1.0 / n
        lhs_n = grid.h**2 * float(hess2 @ dn ** (-2 * alpha)
                                  + grad2 @ dn ** (-2 - 2 * alpha)
                                  + u**2 @ dn ** (-4 - 2 * alpha))
        sweep.append((n, lhs_n))
    lhs = sweep[-1][1]
    rhs = lam ** (1.0 + alpha / 2.0) * nrm2
    blowup = False
    if len(sweep) >= 2:
        prev = sweep[-2][1]
        blowup = (lhs - prev) > STABILIZATION_INCREMENT * prev
    return DecayReport(alpha=alpha, lhs=lhs, rhs=rhs, c_hat=lhs / rhs,
                       n_sweep=tuple(sweep), blowup=blowup,
                       flagged_alpha=flagged)


@dataclass(frozen=True)
class PAlphaReport:
    alpha: float
    k_used: float
    kprime_used: float
    lhs: float                    # worst-case Q(w_n u) over witnesses
    rhs: float                    # matching k*Q(u, w_n^2 u) + k'
    margin: float                 # min over (witness, n) of rhs - lhs
    k_alpha_ref: float
    gamma_alpha: float
    witness: tuple                # labels
    per_witness_margin: tuple = ()


def make_witnesses(spec: Spectrum, dist: DistanceField, grid: Grid,
                   mask: GridMask, seed: int = 42):
    """The lowest five eigenvectors (as many as ``spec`` holds) plus three
    seeded smooth bumps, all mass-normalized."""
    rng = np.random.default_rng(seed)
    xs, ys = (mask.restrict(c) for c in grid.meshgrid())
    d = dist.interior_values(mask)
    dmax = float(d.max())
    witnesses = []
    labels = []
    for j in range(min(5, spec.m)):
        witnesses.append(spec.vectors[:, j].copy())
        labels.append(f"phi_{j + 1}")
    for b in range(3):
        while True:
            cx = rng.uniform(xs.min(), xs.max())
            cy = rng.uniform(ys.min(), ys.max())
            k = np.argmin((xs - cx) ** 2 + (ys - cy) ** 2)
            if d[k] > 0.35 * dmax:
                break
        sig = rng.uniform(0.15, 0.3) * dmax
        u = np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * sig**2))
        u *= smoothstep(d / (0.25 * dmax))
        nrm = math.sqrt(float(u @ (spec.B @ u)))
        witnesses.append(u / nrm)
        labels.append(f"bump_{b + 1}")
    return witnesses, labels


def probe_P_alpha(Q: FormMatrix, mass: FormMatrix, dist: DistanceField,
                  alpha: float, witnesses, labels=None,
                  k: Optional[float] = None,
                  n_sweep: Optional[Sequence[int]] = None, *,
                  mask: GridMask) -> PAlphaReport:
    """Check Q(w_n u) <= k Q(u, w_n^2 u) + k' ||u||^2 over witnesses and n.

    With k defaulting to 1.05 * k_alpha_ref, k' is the smallest power of two
    making every margin nonnegative; negative margins are data, not errors.
    """
    if not (0.0 < alpha < 0.5):
        raise AlphaOutOfRange(f"alpha={alpha} outside (0, 1/2)")
    n_sweep = _n_levels(n_sweep, dist.grid.h)
    if k is None:
        k = 1.05 * k_alpha_ref(alpha)
    dvals = dist.interior_values(mask)
    Bm = mass.matrix
    needs = []          # (witness, n) -> lhs - k*mid
    lhs_all = []
    mid_all = []
    for u in witnesses:
        nrm2 = float(u @ (Bm @ u))
        for n in n_sweep:
            wn = (dvals + 1.0 / n) ** (-alpha)
            lhs = Q(wn * u)
            mid = Q(u, wn * wn * u)
            needs.append((lhs - k * mid) / nrm2)
            lhs_all.append(lhs)
            mid_all.append(mid)
    needs = np.array(needs)
    need = float(needs.max())
    kprime = 2.0**math.ceil(math.log2(need)) if need > 1.0 else 1.0
    margins = kprime - needs
    per_witness = margins.reshape(len(witnesses), len(n_sweep)).min(axis=1)
    worst = int(np.argmin(margins))
    if labels is None:
        labels = tuple(f"w{i}" for i in range(len(witnesses)))
    return PAlphaReport(
        alpha=alpha, k_used=float(k), kprime_used=float(kprime),
        lhs=float(lhs_all[worst]),
        rhs=float(k * mid_all[worst] + kprime),
        margin=float(margins.min()),
        k_alpha_ref=k_alpha_ref(alpha), gamma_alpha=gamma_alpha(alpha),
        witness=tuple(labels), per_witness_margin=tuple(per_witness))


def measure_cross_term_constant(dist: DistanceField, alpha: float,
                                witnesses, grid: Grid, mask: GridMask,
                                Q0: FormMatrix, *, ops=None) -> float:
    """c_hat = max over witnesses of
    sum h^2 |hess(d_n^a v)| |hess(d_n^-a v)| / Q0(v).

    ``ops`` is ``interior_difference_ops(grid, mask)``, built here when
    None, so that a sweep over alphas builds it once.
    """
    if not (0.0 < alpha < 0.5):
        raise AlphaOutOfRange(f"alpha={alpha} outside (0, 1/2)")
    if ops is None:
        ops = interior_difference_ops(grid, mask)
    dn = dist.interior_values(mask) + 1.0 / dist.n_reg
    h2 = grid.h**2
    c_hat = 0.0
    for v in witnesses:
        hp, hm = (np.sqrt(derivative_norms2(ops, dn**a * v)[1])
                  for a in (alpha, -alpha))
        left = h2 * float(hp @ hm)
        c_hat = max(c_hat, left / Q0(v))
    return c_hat


def probe_perturbation(base_report: PAlphaReport, Q_tilde: FormMatrix,
                       mass: FormMatrix, dist: DistanceField,
                       delta_norm: float, lambda_tilde: float,
                       c_hat: float, witnesses, labels=None,
                       n_sweep: Optional[Sequence[int]] = None, *,
                       mask: GridMask) -> PAlphaReport:
    """Re-run the form-inequality probe for a perturbed tensor with the
    inflated constant k~ = k / (1 - (1 + c k) ||a~ - a|| / lambda~)."""
    k = base_report.k_used
    hypothesis = lambda_tilde / (1.0 + c_hat * k)
    if delta_norm >= hypothesis:
        raise BoundViolated(
            f"perturbation {delta_norm} >= lambda~/(1+ck) = {hypothesis}; "
            "outside the stability hypothesis")
    k_tilde = k / (1.0 - (1.0 + c_hat * k) * delta_norm / lambda_tilde)
    return probe_P_alpha(Q_tilde, mass, dist, base_report.alpha, witnesses,
                         labels=labels, k=k_tilde, n_sweep=n_sweep, mask=mask)
