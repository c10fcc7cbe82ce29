"""Orchestration: the boundary-erosion stability study, cutoff Rayleigh
bounds and run configuration, whose every section, key and kind ``_SCHEMA``
declares.  Results are returned as data; the CLI writes them out.

The configuration half imports no scipy; the study and the bound import the
sparse and dense solvers when they are called."""
from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from . import finsler, geometry
from .errors import ConfigError
from .finsler import CoefficientField
from .geometry import (AnalyticDomain, build_cutoff, difference_ops,
                       eroded_mask, hessian_norm2)

if TYPE_CHECKING:
    from .assembly import FormMatrix
    from .spectral import Spectrum


@dataclass(frozen=True)
class RunConfig:
    domain_kind: str
    domain_params: dict
    operator_kind: str
    operator_params: dict
    h: float
    m: int
    alphas: tuple
    eps_list: tuple
    n_sweep: tuple
    seed: int
    tol: float
    out_dir: str
    allow_blowup: bool = False
    delta: float = 0.0


def _tuple(parse):
    return lambda text: tuple(parse(v) for v in text.split())


# [domain] and [operator] read ``kind`` and map each kind to a constructor
# and the keys it takes in order, with defaults (None: required); every other
# section maps each key to its RunConfig field, parser and default text.
_SCHEMA = {
    "domain": {
        "disk": (geometry.disk, {"radius": None}),
        "rectangle": (geometry.rectangle, {"width": None, "height": None}),
        "superellipse": (geometry.superellipse,
                         {"a": None, "b": None, "p": None})},
    "operator": {
        "bilaplacian": (finsler.bilaplacian, {}),
        "product": (lambda x, y, z: finsler.product([[x, z], [z, y]]),
                    {"b00": None, "b11": None, "b01": 0.0}),
        "diagonal": (lambda x, y, z: finsler.diagonal([[x, z], [z, y]]),
                     {"a00": None, "a11": None, "a01": 0.0})},
    "grid": {"h": ("h", float, None)},
    "spectral": {"m": ("m", int, "3"), "tol": ("tol", float, "1e-8")},
    "sweeps": {"alphas": ("alphas", _tuple(float), "0.25"),
               "eps": ("eps_list", _tuple(float), ""),
               "n_sweep": ("n_sweep", _tuple(int), "")},
    "run": {"seed": ("seed", int, "42"), "out": ("out_dir", str, ".")},
    "perturbation": {"delta": ("delta", float, "0.0")},
}


def _make(section: str, kind: str, params: dict):
    if kind not in _SCHEMA[section]:
        raise ConfigError(f"unknown {section} kind {kind!r}")
    make, keys = _SCHEMA[section][kind]
    return make(*(params[k] if default is None else params.get(k, default)
                  for k, default in keys.items()))


def make_domain(kind: str, params: dict) -> AnalyticDomain:
    return _make("domain", kind, params)


def make_coeffs(kind: str, params: dict) -> CoefficientField:
    return _make("operator", kind, params)


def default_n_sweep(h: float) -> list:
    """{8, 16, 32, 64, round(1/h)} capped at round(1/h)."""
    cap = max(1, int(round(1.0 / h)))
    ns = sorted({min(n, cap) for n in (8, 16, 32, 64, cap)})
    return ns


def _check_keys(cp: configparser.ConfigParser, kinds: dict) -> None:
    """Refuse a section or key that is not read: a misspelt key would leave
    its default in force.  An unknown kind is left to ``validate_config``."""
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        kind = kinds.get(section)
        if kind is not None and kind not in _SCHEMA[section]:
            continue
        keys = (_SCHEMA[section] if kind is None
                else {"kind", *_SCHEMA[section][kind][1]})
        extra = sorted(set(cp[section]) - set(keys))
        if extra:
            where = "" if kind is None else f" for kind {kind!r}"
            raise ConfigError(f"unknown config key {extra[0]!r} in "
                              f"[{section}]{where}")


def load_config(path: str) -> RunConfig:
    """Flat key-value sections (INI grammar, UTF-8, ``;`` comments, also
    after a value), as ``_SCHEMA`` declares them; see README for the keys.
    A section or key that is not read is an error."""
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=(";",))
    try:
        cp.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    try:
        dom = dict(cp["domain"])
        op = dict(cp["operator"]) if "operator" in cp else {"kind": "bilaplacian"}
        kinds = {"domain": dom.pop("kind").lower(),
                 "operator": op.pop("kind").lower()}
        _check_keys(cp, kinds)
        domain_params = {k: float(v) for k, v in dom.items()}
        op_params = {k: float(v) for k, v in op.items()}
        fields = {field: parse(cp[section][key] if default is None
                               else cp.get(section, key, fallback=default))
                  for section, keys in _SCHEMA.items() if section not in kinds
                  for key, (field, parse, default) in keys.items()}
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad or missing config key: {exc}") from exc
    cfg = RunConfig(domain_kind=kinds["domain"], domain_params=domain_params,
                    operator_kind=kinds["operator"], operator_params=op_params,
                    **fields)
    validate_config(cfg)
    if not cfg.n_sweep:  # the default needs an h that passed validation
        cfg = replace(cfg, n_sweep=tuple(default_n_sweep(cfg.h)))
    return cfg


def validate_config(cfg: RunConfig) -> None:
    for name, value in (("grid spacing h", cfg.h), ("tol", cfg.tol)):
        if not (np.isfinite(value) and value > 0):
            raise ConfigError(f"{name}={value} must be finite and positive")
    if not (np.isfinite(cfg.delta) and cfg.delta >= 0):
        raise ConfigError(f"delta={cfg.delta} must be finite and >= 0")
    if cfg.seed < 0:
        raise ConfigError(f"seed={cfg.seed} must be >= 0")
    if cfg.m < 1:
        raise ConfigError("eigenpair count m must be >= 1")
    for key, value in (*cfg.domain_params.items(),
                       *cfg.operator_params.items()):
        if not np.isfinite(value):
            raise ConfigError(f"{key}={value} must be finite")
    try:
        domain = make_domain(cfg.domain_kind, cfg.domain_params)
        make_coeffs(cfg.operator_kind, cfg.operator_params)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad or missing domain or operator parameter: "
                          f"{exc}") from exc
    for name, values in (("eps", cfg.eps_list), ("alphas", cfg.alphas),
                         ("n_sweep", cfg.n_sweep)):
        if len(set(values)) < len(values):
            raise ConfigError(f"{name} {list(values)} repeats a value")
    for eps in cfg.eps_list:
        if not (4.0 * cfg.h <= eps < domain.inradius):
            raise ConfigError(f"eps={eps} outside [4h, inradius) = "
                              f"[{4.0 * cfg.h}, {domain.inradius})")
    for a in cfg.alphas:
        if not (0.0 < a < 1.0):
            raise ConfigError(f"alpha={a} outside (0, 1)")
    for n in cfg.n_sweep:
        if n < 1:
            raise ConfigError(f"n_sweep entry {n} < 1")


@dataclass(frozen=True)
class StabilityRow:
    n: int
    eps: float
    lam: float
    lam_tilde: float
    drift: float
    rayleigh_upper: float
    ball_law_error: float
    residual: float
    residual_tilde: float


@dataclass(frozen=True)
class StabilityReport:
    rows: tuple                   # StabilityRow
    fitted_exponent: dict         # n -> drift exponent extrapolated to eps -> 0
    hess_deps_bound: dict         # eps -> measured sup |hess d_eps| on the band


def cutoff_rayleigh_bound(spec: Spectrum, tau: np.ndarray,
                          Q: FormMatrix) -> np.ndarray:
    """Upper bounds sup{Q(v)/||v||^2 : v in span(tau phi_1..tau phi_n)} for
    the lattice cutoff ``tau`` of ``build_cutoff`` on the dofs of
    ``Q.mask``, the norm that of the pencil's mass ``spec.B``.

    Returns one bound per n = 1..m via the dense generalized eigenproblem in
    the transplanted subspace.
    """
    import scipy.linalg as sla

    U = Q.mask.restrict(tau)[:, None] * spec.vectors
    S = U.T @ (Q.matrix @ U)
    T = U.T @ (spec.B @ U)
    S = (S + S.T) / 2
    T = (T + T.T) / 2
    bounds = np.empty(spec.m)
    for n in range(1, spec.m + 1):
        vals = sla.eigh(S[:n, :n], T[:n, :n], eigvals_only=True)
        bounds[n - 1] = vals[-1]
    return bounds


def fit_drift_exponent(eps: np.ndarray, drift: np.ndarray,
                       floor: np.ndarray) -> float:
    """Asymptotic exponent p of drift ~ c eps^p (1 + a eps + ...) as eps -> 0.

    The local slope eps f'/f of such a law is p + a eps + O(eps^2), so the
    pairwise slopes d log drift / d log eps, placed at the geometric
    midpoints of consecutive eps, are extrapolated linearly to eps = 0; a
    log-log slope over the whole window is biased (1.245 for the exact disk
    law (1 - eps)^-4 - 1 on [0.04, 0.16]).  Rows below 10x the solver
    residual floor are excluded; two kept rows give their two-point slope,
    fewer give nan.
    """
    order = np.argsort(eps)
    keep = (drift > 10.0 * floor)[order]
    if keep.sum() < 2:
        return float("nan")
    log_eps = np.log(eps[order][keep])
    slopes = np.diff(np.log(drift[order][keep])) / np.diff(log_eps)
    if slopes.size == 1:
        return float(slopes[0])
    mid = np.exp(0.5 * (log_eps[1:] + log_eps[:-1]))
    _, intercept = np.polyfit(mid, slopes, 1)
    return float(intercept)


def measure_eroded_hessian_bound(dist, eps: float) -> float:
    """Measured sup |hess d_eps| on the transition band {d < 2 eps}, for
    the Euclidean distance ``dist`` of ``euclidean_from_sdf``.  The band's
    stencils read interior nodes only, where d_eps = d - eps."""
    grid, mask = dist.grid, dist.mask
    band = mask.interior & (dist.d > eps + 2 * grid.h) & (dist.d < 2 * eps)
    if not band.any():
        return float("nan")
    hess = difference_ops(grid, mask, ("Dxx", "Dyy", "Dxy"),
                          np.flatnonzero(band))
    deps = dist.interior_values() - eps
    return float(np.sqrt(hessian_norm2(hess, deps)).max())


def _eroded_masks(dist, m: int, eps_list: Sequence[float]) -> list:
    """The masks {d > eps} of ``eroded_mask``, one per eps, for the
    Euclidean distance ``dist``.

    Raises ConfigError when an eps is below 4h or leaves no more than m
    unknowns.  Both depend only on the grid and the sdf, so they are checked
    before any eigensolve.
    """
    h = dist.grid.h
    subs = []
    for eps in eps_list:
        if not eps >= 4.0 * h:
            raise ConfigError(f"eps={eps} < 4h={4 * h}")
        sub = eroded_mask(dist, eps)  # d is 0 off the mask
        if m >= sub.count:
            raise ConfigError(f"m={m} eigenpairs need more than the "
                              f"{sub.count} unknowns left of "
                              f"{dist.mask.count} at eps={eps}")
        subs.append(sub)
    return subs


def run_erosion_study(domain: AnalyticDomain, coeffs: CoefficientField,
                      grid, mask, m: int, eps_list: Sequence[float],
                      full_eigenpairs: Callable[..., Spectrum],
                      tol: float = 1e-8, seed: int = 42) -> StabilityReport:
    """Eigenvalue drift under boundary erosion on the fixed lattice ``grid``:
    the operator form on each eroded node set {d > eps} is the principal
    submatrix of the form on ``mask``, built directly on that set.

    ``full_eigenpairs(Q, mass, m=, tol=, seed=)`` gives the eigenpairs of
    the full pencil, with the signature and the result of
    ``lowest_eigenpairs``: that function itself, or one that reads a stored
    solve, as the CLI's does.  It is called after the eroded grids are
    checked; the eroded pencils are solved with ``lowest_eigenpairs``.

    The cutoff Rayleigh bounds read the full form, so they are taken first.
    The full form, its mass and eigenvectors are then released before the
    eroded factorizations: the allocator keeps the heap that the full LU
    freed, so a full form still alive beside the first eroded LU would
    raise the peak memory of the whole study.
    """
    from .assembly import assemble_Q, assemble_weighted
    from .spectral import lowest_eigenpairs

    dist_sdf = finsler.euclidean_from_sdf(domain, grid, mask)
    subs = _eroded_masks(dist_sdf, m, eps_list)
    Q = assemble_Q(grid, mask, coeffs)
    mass = assemble_weighted(grid, mask, None, "mass", 0.0, 1)
    spec = full_eigenpairs(Q, mass, m=m, tol=tol, seed=seed)
    bounds = [cutoff_rayleigh_bound(spec, build_cutoff(dist_sdf, eps), Q)
              for eps in eps_list]
    hess_deps = {eps: measure_eroded_hessian_bound(dist_sdf, eps)
                 for eps in eps_list}
    lam, res = spec.values, spec.residuals
    del Q, mass, spec

    rows = []
    for eps, sub, bound in zip(eps_list, subs, bounds):
        spec_t = lowest_eigenpairs(
            assemble_Q(grid, sub, coeffs),
            assemble_weighted(grid, sub, None, "mass", 0.0, 1),
            m=m, tol=tol, seed=seed)
        for n in range(m):
            lam_n = float(lam[n])
            lam_t = float(spec_t.values[n])
            if domain.kind == "disk":
                r = domain.params["radius"]
                ball_err = abs(lam_t / lam_n - (1.0 - eps / r) ** (-4))
            else:
                ball_err = float("nan")
            rows.append(StabilityRow(
                n=n + 1, eps=float(eps), lam=lam_n, lam_tilde=lam_t,
                drift=lam_t - lam_n, rayleigh_upper=float(bound[n]),
                ball_law_error=ball_err, residual=float(res[n]),
                residual_tilde=float(spec_t.residuals[n])))

    fitted = {}
    eps_arr = np.array([r.eps for r in rows])
    for n in range(1, m + 1):
        sel = np.array([r.n == n for r in rows])
        drift = np.array([r.drift for r in rows])[sel]
        floor = np.array([2.0 * (r.residual + r.residual_tilde) * r.lam
                          for r in rows])[sel]
        fitted[n] = fit_drift_exponent(eps_arr[sel], drift, floor)
    return StabilityReport(rows=tuple(rows), fitted_exponent=fitted,
                           hess_deps_bound=hess_deps)
