"""Command-line front end.

Exit codes: 0 success, 2 configuration/usage error or an output file not
written, 3 solver failure.  Errors are emitted as machine-readable JSON on
stderr.

The commands that factor a form import ``assembly``, ``spectral`` and
``verifier`` when they run, so ``distance`` runs without scipy.  Only
``spectral.factor`` and ``spectral.lowest_eigenpairs`` import
``scipy.sparse.linalg``, so a command that reads stored eigenpairs imports no
solver.  Imported before numpy, the module sets ``OMP_NUM_THREADS=1`` unless
it is already set.  ``main``, the ``platelab`` entry point, skips the
interpreter's exit-time collections; ``cli_main`` does not.

Every command that solves the configured pencil keeps its eigenpairs in
``eigenpairs_m<m>.npz`` in the output directory (``_eigenpairs``), so a later
command on the same pencil reads them instead of solving again.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import json
import os
import platform
import sys
import zipfile

# extra BLAS threads only spin between SuperLU's small BLAS-2 calls
if "numpy" not in sys.modules:
    os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np

from . import finsler
from .errors import ConfigError, EllipticityLost, PlatelabError
from .experiments import RunConfig, load_config, make_coeffs, make_domain
from .geometry import build_grid


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _plain(o):
    """The payload in JSON types: numpy values as Python ones, and a
    non-finite float as None, since NaN and Infinity are not JSON."""
    if isinstance(o, dict):
        return {k: _plain(v) for k, v in o.items()}
    if isinstance(o, (list, tuple, np.ndarray)):
        return [_plain(v) for v in o]
    if isinstance(o, (float, np.floating)):
        return float(o) if np.isfinite(o) else None
    if isinstance(o, np.integer):
        return int(o)
    return o


def write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(_plain(payload), f, indent=2, sort_keys=True,
                  allow_nan=False)
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
    grid, mask = build_grid(domain, cfg.h)
    return domain, grid, mask


_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _pencil_key(A, B, m: int, tol: float, seed: int) -> str:
    """SHA-256 of everything the bits of ``lowest_eigenpairs(A, B, m, tol,
    seed)`` depend on: the CSR arrays of both forms, the arguments, the
    solver's source, the numpy and scipy versions, the machine and the BLAS
    thread variables (threaded BLAS sums in another order)."""
    import hashlib  # scipy loads it too; distance loads neither

    import scipy

    from . import spectral

    digest = hashlib.sha256()
    for M in (A.matrix, B.matrix):
        for a in (M.indptr, M.indices, M.data):
            digest.update(f"{a.dtype.str}{a.shape}".encode())
            digest.update(np.ascontiguousarray(a))
    with open(spectral.__file__, "rb") as f:
        digest.update(f.read())
    digest.update(repr((m, tol, seed, np.__version__, scipy.__version__,
                        platform.machine(),
                        [os.environ.get(k) for k in _THREAD_VARS])).encode())
    return digest.hexdigest()


def _eigenpairs(out: str, A, B, m: int, tol: float, seed: int):
    """``spectral.lowest_eigenpairs(A, B, m, tol, seed)`` for the forms A and
    B, kept in ``out/eigenpairs_m<m>.npz`` under the key of ``_pencil_key``.

    A stored file whose key matches is read (never unpickled); a missing,
    unreadable or mismatched one is a miss, which solves and replaces it.
    """
    from . import spectral

    key = _pencil_key(A, B, m, tol, seed)
    path = os.path.join(out, f"eigenpairs_m{m}.npz")
    try:
        with np.load(path) as stored:
            if str(stored["key"]) == key:
                return spectral.Spectrum(
                    values=stored["values"], vectors=stored["vectors"],
                    residuals=stored["residuals"], B=B.matrix, m=m)
    except (OSError, EOFError, KeyError, TypeError, ValueError,
            zipfile.BadZipFile):  # TypeError: a .npy file is no archive
        pass
    spec = spectral.lowest_eigenpairs(A, B, m=m, tol=tol, seed=seed)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            np.savez(f, key=np.array(key), values=spec.values,
                     vectors=spec.vectors, residuals=spec.residuals)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    os.replace(tmp, path)  # a reader sees the old file or the new one
    return spec


def _build_pencil(cfg: RunConfig, coeffs, m: int, out: str):
    """The common setup plus the form Q of ``coeffs``, the mass form and
    the lowest m eigenpairs of the pencil (Q, mass)."""
    from . import assembly

    domain, grid, mask = _build_common(cfg)
    if m >= mask.count:
        raise ConfigError(f"m={m} eigenpairs need more than the "
                          f"{mask.count} grid unknowns")
    Q = assembly.assemble_Q(grid, mask, coeffs)
    mass = assembly.assemble_weighted(grid, mask, None, "mass", 0.0, 1)
    spec = _eigenpairs(out, Q, mass, m, cfg.tol, cfg.seed)
    return domain, grid, mask, Q, mass, spec


def _cmd_spectrum(cfg: RunConfig, coeffs, out: str) -> int:
    *_, spec = _build_pencil(cfg, coeffs, cfg.m, out)
    _write_csv(os.path.join(out, "spectrum.csv"), "index,value,residual",
               zip(range(spec.m), spec.values, spec.residuals))
    return 0


def _check_convex_symbol(coeffs) -> None:
    """finsler_distance needs a convex unit ball {q <= 1}.  Scaled, a
    diagonal q is c^4 + 2k c^2 s^2 + s^4, k = a01 / sqrt(a00 a11), convex
    exactly for k <= 3; product has M01 = sqrt(M00 M11), always convex."""
    M = coeffs.M
    if M[0, 1] > 3.0 * np.sqrt(M[0, 0] * M[1, 1]):
        raise ConfigError(f"diagonal a01={M[0, 1]} > 3 sqrt(a00 a11): the "
                          "unit ball {q <= 1} is not convex")


def _cmd_distance(cfg: RunConfig, coeffs, out: str) -> int:
    _check_convex_symbol(coeffs)
    domain, grid, mask = _build_common(cfg)
    dist = finsler.finsler_distance(domain, grid, mask, coeffs)
    dist_e = finsler.euclidean_from_sdf(domain, grid, mask)
    c1_hat, c2_hat = finsler.equivalence_constants(dist, dist_e)
    res = finsler.eikonal_residual(dist, coeffs)
    d_e = dist_e.interior_values()
    far = d_e > 3.0 * grid.h
    stats = {
        "c1_hat": c1_hat,
        "c2_hat": c2_hat,
        "residual_median": float(np.median(res[far])) if far.any() else None,
        "residual_q95": float(np.quantile(res[far], 0.95)) if far.any() else None,
        "frac_within_5h": float(np.mean(res[far] <= 5.0 * grid.h))
        if far.any() else None,
    }
    write_json(os.path.join(out, "distance.json"), stats)
    xs, ys = (mask.restrict(c) for c in grid.meshgrid())
    _write_csv(os.path.join(out, "distance.csv"),
               "x,y,d_finsler,d_euclid,residual",
               zip(xs, ys, dist.interior_values(), d_e, res))
    return 0


def _cmd_hardy(cfg: RunConfig, coeffs, out: str) -> int:
    if coeffs.kind != "bilaplacian":  # the pencils use Q0 and d_euclid
        raise ConfigError(f"hardy measures the bilaplacian's constants, not "
                          f"those of operator kind {coeffs.kind!r}")
    from . import assembly, spectral, verifier

    domain, grid, mask = _build_common(cfg)
    dist = finsler.euclidean_from_sdf(domain, grid, mask)
    Q0 = assembly.assemble_Q0(grid, mask)
    grad = assembly.assemble_weighted(grid, mask, None, "grad", 0.0, 1)
    reports = {}
    # one LU per distinct form, both Rellich pencils through Q0's
    for A, kinds in ((grad, ("hardy_grad",)),
                     (Q0, ("rellich_mass", "rellich_grad"))):
        op = spectral.factor(A)
        for kind in kinds:
            rep = verifier.estimate_hardy_constant(
                A, dist, kind, n_sweep=cfg.n_sweep, tol=cfg.tol,
                seed=cfg.seed, OPinv=op)
            reports[kind] = dataclasses.asdict(rep)
        del op  # so that one LU at a time is alive
    write_json(os.path.join(out, "hardy.json"), reports)
    return 0


def _check_alphas(cfg: RunConfig) -> None:
    """The alphas list must be nonempty.  The decay integrals diverge for
    alpha >= 1/2, so only ``decay --allow-blowup`` runs such alphas, as a
    demonstration."""
    if not cfg.alphas:
        raise ConfigError("decay and palpha require a nonempty alphas list")
    bad = [a for a in cfg.alphas if not (0.0 < a < 0.5)]
    if bad and not cfg.allow_blowup:
        raise ConfigError(
            f"alpha values {bad} outside (0, 0.5); only decay runs them, "
            "with --allow-blowup, as the blow-up demonstration")


def _cmd_decay(cfg: RunConfig, coeffs, out: str) -> int:
    from . import verifier

    _check_alphas(cfg)
    if len(cfg.n_sweep) < 2:
        raise ConfigError(
            f"decay flags the increment between the two largest n, so "
            f"n_sweep {list(cfg.n_sweep)} needs two or more levels")
    domain, grid, mask, _, _, spec = _build_pencil(cfg, coeffs, cfg.m, out)
    dist = finsler.euclidean_from_sdf(domain, grid, mask)
    rows = []
    for a in cfg.alphas:
        rep = verifier.verify_decay(spec, a, dist, n_sweep=cfg.n_sweep)
        flag = "BLOWUP" if rep.blowup else "STABLE"
        rows += [(a, n, lhs, rep.rhs, lhs / rep.rhs, flag)
                 for n, lhs in rep.n_sweep]
    _write_csv(os.path.join(out, "decay.csv"),
               "alpha,n_reg,lhs,rhs,c_hat,flag", rows)
    return 0


def _cmd_palpha(cfg: RunConfig, coeffs, out: str) -> int:
    from . import assembly, verifier

    _check_alphas(cfg)
    _check_convex_symbol(coeffs)
    # the perturbation depends only on (operator, delta, seed), so a delta
    # that breaks ellipticity is refused before any assembly
    if cfg.delta > 0.0:
        try:
            tilde = assembly.perturb_coeffs(coeffs, cfg.delta, seed=cfg.seed)
        except EllipticityLost as exc:
            raise ConfigError(f"delta={cfg.delta} with seed {cfg.seed}: "
                              f"{exc}") from exc
    domain, grid, mask, Q, mass, spec = _build_pencil(cfg, coeffs, 5, out)
    dist = finsler.finsler_distance(domain, grid, mask, coeffs)
    witnesses = verifier.make_witnesses(spec, dist, seed=cfg.seed)
    if cfg.delta > 0.0:
        Qt = assembly.assemble_Q(grid, mask, tilde)
        Q0 = assembly.assemble_Q0(grid, mask)
        lambda_tilde = assembly.ellipticity_window(tilde)
    payload = {}
    for a in cfg.alphas:
        rep = verifier.probe_P_alpha(Q, mass, dist, a, witnesses,
                                     n_sweep=cfg.n_sweep)
        entry = {"base": dataclasses.asdict(rep)}
        if cfg.delta > 0.0:
            c_hat = verifier.measure_cross_term_constant(
                dist, a, witnesses, Q0=Q0)
            try:
                rep_t = verifier.probe_perturbation(
                    rep, Qt, mass, dist, tilde.delta_norm, lambda_tilde,
                    c_hat, witnesses, n_sweep=cfg.n_sweep)
                entry["perturbed"] = dataclasses.asdict(rep_t)
            except PlatelabError as exc:
                entry["perturbed"] = {"error": type(exc).__name__,
                                      "message": str(exc)}
        payload[repr(a)] = entry
    write_json(os.path.join(out, "palpha.json"), payload)
    return 0


def _cmd_erode(cfg: RunConfig, coeffs, out: str) -> int:
    if not cfg.eps_list:
        raise ConfigError("erode requires a nonempty eps list")
    from .experiments import run_erosion_study

    domain, grid, mask = _build_common(cfg)
    # run_erosion_study checks the eroded grids before the full solve,
    # which reads or stores the eigenpairs that spectrum reads or stores
    report = run_erosion_study(domain, coeffs, grid, mask, cfg.m,
                               cfg.eps_list,
                               functools.partial(_eigenpairs, out),
                               tol=cfg.tol, seed=cfg.seed)
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


# name -> command(cfg, coeffs, out), coeffs the one tensor cli_main builds
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
        if name == "decay":
            p.add_argument("--allow-blowup", action="store_true")
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise ConfigError("missing subcommand; expected one of "
                              + ", ".join(sorted(_COMMANDS)))
        cfg = load_config(args.config)
        if args.seed is not None:
            # load_config checked the rest of the config
            if args.seed < 0:
                raise ConfigError(f"seed={args.seed} must be >= 0")
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if getattr(args, "allow_blowup", False):
            cfg = dataclasses.replace(cfg, allow_blowup=True)
        out = args.out if args.out is not None else cfg.out_dir
        try:
            os.makedirs(out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot use output directory {out}: "
                              f"{exc}") from exc
        coeffs = make_coeffs(cfg.operator_kind, cfg.operator_params)
        return _COMMANDS[args.command](cfg, coeffs, out)
    except ConfigError as exc:
        return _emit_error(2, "ConfigError", str(exc))
    except PlatelabError as exc:
        return _emit_error(3, type(exc).__name__, str(exc))
    except OSError as exc:  # an output file or the store not written
        return _emit_error(2, "OSError", str(exc))


def main() -> None:
    code = cli_main()
    # the process ends here, so spare it the exit-time collections over
    # numpy's and scipy's objects; cli_main, called many times in one
    # interpreter, must never freeze
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
