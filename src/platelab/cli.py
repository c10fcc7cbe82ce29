"""Command-line front end.

Exit codes: 0 success, 2 configuration/usage error, 3 solver failure.
Errors are emitted as machine-readable JSON on stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import assembly, finsler, verifier
from .errors import ConfigError, EllipticityLost, PlatelabError
from .experiments import (RunConfig, load_config, make_coeffs, make_domain,
                          run_erosion_study, validate_config)
from .geometry import build_grid
from .spectral import lowest_eigenpairs


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def write_json(path: str, payload) -> None:
    def default(o):
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        if isinstance(o, np.ndarray):
            return o.tolist()
        raise TypeError(type(o))

    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True, default=default)
        f.write("\n")


def _write_csv(path: str, header: str, rows) -> None:
    """One line per row: ints as %d, strings as they are and every other
    value as %.17g, which reads back as the same float64."""
    def fmt(v):
        if isinstance(v, str):
            return v
        if isinstance(v, (int, np.integer)):
            return "%d" % v
        return "%.17g" % v

    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(fmt(v) for v in row) + "\n")


def _emit_error(code: int, kind: str, message: str) -> int:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")
    return code


def _build_common(cfg: RunConfig):
    domain = make_domain(cfg.domain_kind, cfg.domain_params)
    coeffs = make_coeffs(cfg.operator_kind, cfg.operator_params)
    grid, mask = build_grid(domain, cfg.h)
    return domain, coeffs, grid, mask


def _build_pencil(cfg: RunConfig, m: int):
    """The common setup plus the operator form Q, the mass form and the
    lowest m eigenpairs of the pencil (Q, mass)."""
    domain, coeffs, grid, mask = _build_common(cfg)
    if m >= mask.count:
        raise ConfigError(f"m={m} eigenpairs need more than the "
                          f"{mask.count} grid unknowns")
    Q = assembly.assemble_Q(grid, mask, coeffs)
    mass = assembly.assemble_weighted(grid, mask, None, "mass", 0.0, 1)
    spec = lowest_eigenpairs(Q, mass, m=m, tol=cfg.tol, seed=cfg.seed)
    return domain, coeffs, grid, mask, Q, mass, spec


def _cmd_spectrum(cfg: RunConfig, out: str) -> int:
    *_, spec = _build_pencil(cfg, cfg.m)
    _write_csv(os.path.join(out, "spectrum.csv"), "index,value,residual",
               zip(range(spec.m), spec.values, spec.residuals))
    return 0


def _cmd_distance(cfg: RunConfig, out: str) -> int:
    domain, coeffs, grid, mask = _build_common(cfg)
    dist = finsler.finsler_distance(domain, grid, mask, coeffs)
    # p* is |xi| for the bilaplacian: the Euclidean solve would repeat this one
    dist_e = (dist if coeffs.kind == "bilaplacian" else
              finsler.finsler_distance(domain, grid, mask, finsler.bilaplacian()))
    c1_hat, c2_hat = finsler.equivalence_constants(dist, dist_e, mask)
    res = finsler.eikonal_residual(dist, coeffs, mask)
    d_e = dist_e.interior_values(mask)
    far = d_e > 3.0 * grid.h
    stats = {
        "c1_hat": c1_hat,
        "c2_hat": c2_hat,
        "n_reg": dist.n_reg,
        "residual_median": float(np.median(res[far])) if far.any() else None,
        "residual_q95": float(np.quantile(res[far], 0.95)) if far.any() else None,
        "frac_within_5h": float(np.mean(res[far] <= 5.0 * grid.h))
        if far.any() else None,
    }
    write_json(os.path.join(out, "distance.json"), stats)
    xs, ys = (mask.restrict(c) for c in grid.meshgrid())
    _write_csv(os.path.join(out, "distance.csv"),
               "x,y,d_finsler,d_euclid,residual",
               zip(xs, ys, dist.interior_values(mask), d_e, res))
    return 0


def _cmd_hardy(cfg: RunConfig, out: str) -> int:
    if cfg.operator_kind != "bilaplacian":  # the pencils use Q0 and d_euclid
        raise ConfigError(f"hardy measures the bilaplacian's constants, not "
                          f"those of operator kind {cfg.operator_kind!r}")
    domain, _, grid, mask = _build_common(cfg)
    dist = finsler.euclidean_from_sdf(domain, grid, mask)
    Q0 = assembly.assemble_Q0(grid, mask)
    grad = assembly.assemble_weighted(grid, mask, None, "grad", 0.0, 1)
    mass = assembly.assemble_weighted(grid, mask, None, "mass", 0.0, 1)
    reports = {}
    for kind, A in (("hardy_grad", grad), ("rellich_mass", Q0),
                    ("rellich_grad", Q0)):
        rep = verifier.estimate_hardy_constant(
            A, grid, mask, dist, kind, n_sweep=cfg.n_sweep, mass=mass,
            seed=cfg.seed)
        reports[kind] = dataclasses.asdict(rep)
    write_json(os.path.join(out, "hardy.json"), reports)
    return 0


def _check_alphas(cfg: RunConfig) -> None:
    """The decay integrals diverge for alpha >= 1/2, so only ``decay
    --allow-blowup`` runs such alphas, as a demonstration."""
    bad = [a for a in cfg.alphas if not (0.0 < a < 0.5)]
    if bad:
        raise ConfigError(
            f"alpha values {bad} outside (0, 0.5); only decay runs them, "
            "with --allow-blowup, as the blow-up demonstration")


def _cmd_decay(cfg: RunConfig, out: str) -> int:
    if not cfg.allow_blowup:
        _check_alphas(cfg)
    domain, _, grid, mask, _, _, spec = _build_pencil(cfg, cfg.m)
    dist = finsler.euclidean_from_sdf(domain, grid, mask)
    ops = assembly.interior_difference_ops(grid, mask)
    rows = []
    for a in cfg.alphas:
        rep = verifier.verify_decay(spec, 0, a, dist, grid, mask,
                                    n_sweep=cfg.n_sweep, ops=ops)
        flag = "BLOWUP" if rep.blowup else "STABLE"
        rows += [(a, n, lhs, rep.rhs, lhs / rep.rhs, flag)
                 for n, lhs in rep.n_sweep]
    _write_csv(os.path.join(out, "decay.csv"),
               "alpha,n_reg,lhs,rhs,c_hat,flag", rows)
    return 0


def _cmd_palpha(cfg: RunConfig, out: str) -> int:
    _check_alphas(cfg)
    # the perturbation depends only on (operator, delta, seed), so a delta
    # that breaks ellipticity is refused before any assembly
    if cfg.delta > 0.0:
        try:
            tilde = assembly.perturb_coeffs(
                make_coeffs(cfg.operator_kind, cfg.operator_params),
                cfg.delta, seed=cfg.seed)
        except EllipticityLost as exc:
            raise ConfigError(f"delta={cfg.delta} with seed {cfg.seed}: "
                              f"{exc}") from exc
    domain, coeffs, grid, mask, Q, mass, spec = _build_pencil(cfg, 5)
    dist = finsler.finsler_distance(domain, grid, mask, coeffs)
    witnesses, labels = verifier.make_witnesses(spec, dist, grid, mask,
                                                seed=cfg.seed)
    if cfg.delta > 0.0:
        Qt = assembly.assemble_Q(grid, mask, tilde)
        Q0 = assembly.assemble_Q0(grid, mask)
        win = assembly.ellipticity_window(Qt, Q0)
    payload = {}
    for a in cfg.alphas:
        rep = verifier.probe_P_alpha(Q, mass, dist, a, witnesses,
                                     labels=labels, n_sweep=cfg.n_sweep,
                                     mask=mask)
        entry = {"base": dataclasses.asdict(rep)}
        if cfg.delta > 0.0:
            c_hat = verifier.measure_cross_term_constant(
                dist, a, witnesses, grid, mask, Q0=Q0)
            try:
                rep_t = verifier.probe_perturbation(
                    rep, Qt, mass, dist, tilde.delta_norm, win.lambda_ell,
                    c_hat, witnesses, labels=labels, n_sweep=cfg.n_sweep,
                    mask=mask)
                entry["perturbed"] = dataclasses.asdict(rep_t)
            except PlatelabError as exc:
                entry["perturbed"] = {"error": type(exc).__name__,
                                      "message": str(exc)}
        payload[repr(a)] = entry
    write_json(os.path.join(out, "palpha.json"), payload)
    return 0


def _cmd_erode(cfg: RunConfig, out: str) -> int:
    if not cfg.eps_list:
        raise ConfigError("erode requires a nonempty eps list")
    domain, coeffs, grid, mask = _build_common(cfg)
    # run_erosion_study checks the eroded grids before the full solve
    report = run_erosion_study(domain, coeffs, cfg.h, cfg.m, cfg.eps_list,
                               tol=cfg.tol, seed=cfg.seed, grid=grid,
                               mask=mask)
    _write_csv(os.path.join(out, "stability.csv"),
               "n,eps,lambda,lambda_tilde,drift,rayleigh_upper,ball_law_error",
               ((r.n, r.eps, r.lam, r.lam_tilde, r.drift, r.rayleigh_upper,
                 r.ball_law_error) for r in report.rows))
    write_json(os.path.join(out, "stability.json"), {
        "fitted_exponent": {str(k): v for k, v in
                            report.fitted_exponent.items()},
        "hess_deps_bound": {repr(k): v for k, v in
                            report.hess_deps_bound.items()},
    })
    return 0


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "distance": _cmd_distance,
    "hardy": _cmd_hardy,
    "decay": _cmd_decay,
    "palpha": _cmd_palpha,
    "erode": _cmd_erode,
}


def cli_main(argv=None) -> int:
    parser = _Parser(prog="platelab")
    sub = parser.add_subparsers(dest="command")
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--allow-blowup", action="store_true")
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise ConfigError("missing subcommand; expected one of "
                              + ", ".join(sorted(_COMMANDS)))
        cfg = load_config(args.config)
        updates = {}
        if args.seed is not None:
            updates["seed"] = args.seed
        if args.allow_blowup:
            updates["allow_blowup"] = True
        if updates:
            cfg = dataclasses.replace(cfg, **updates)
            validate_config(cfg)
        out = args.out if args.out is not None else cfg.out_dir
        os.makedirs(out, exist_ok=True)
        return _COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        return _emit_error(2, "ConfigError", str(exc))
    except PlatelabError as exc:
        return _emit_error(3, type(exc).__name__, str(exc))


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
