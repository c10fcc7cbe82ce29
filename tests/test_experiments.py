import ast
import collections
import dataclasses
import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import platelab as pl
from platelab import assembly, cli, experiments, finsler, spectral, verifier
from platelab.cli import cli_main
from platelab.errors import ConfigError

BASE_CFG = """\
[domain]
kind = disk
radius = 1.0

[operator]
kind = bilaplacian

[grid]
h = 0.0625

[spectral]
m = 3
tol = 1e-8

[sweeps]
alphas = 0.25
eps = 0.25

[run]
seed = 42
"""


def _write_cfg(tmp_path, text=BASE_CFG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_config_roundtrip(tmp_path):
    cfg = experiments.load_config(_write_cfg(tmp_path))
    assert cfg.domain_kind == "disk"
    assert cfg.domain_params == {"radius": 1.0}
    assert cfg.operator_kind == "bilaplacian"
    assert cfg.h == 0.0625
    assert cfg.m == 3
    assert cfg.alphas == (0.25,)
    assert cfg.eps_list == (0.25,)
    assert cfg.seed == 42
    assert cfg.n_sweep == (8, 16)


def test_load_config_reads_the_readme_example(tmp_path):
    # the README's example, with a comment after most values, is disk.cfg
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    assert experiments.load_config(_write_cfg(tmp_path, block)) == \
        experiments.load_config(str(root / "configs" / "disk.cfg"))


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        experiments.load_config(str(tmp_path / "nope.cfg"))


def test_load_config_eps_too_small(tmp_path):
    with pytest.raises(ConfigError):
        experiments.load_config(_write_cfg(
            tmp_path, BASE_CFG.replace("eps = 0.25", "eps = 0.1")))


def test_load_config_eps_exceeds_inradius(tmp_path):
    with pytest.raises(ConfigError):
        experiments.load_config(_write_cfg(
            tmp_path, BASE_CFG.replace("eps = 0.25", "eps = 1.5")))


def test_load_config_alpha_out_of_range(tmp_path):
    with pytest.raises(ConfigError):
        experiments.load_config(_write_cfg(
            tmp_path, BASE_CFG.replace("alphas = 0.25", "alphas = 1.25")))


def test_load_config_unknown_domain(tmp_path):
    with pytest.raises(ConfigError):
        experiments.load_config(_write_cfg(
            tmp_path, BASE_CFG.replace("kind = disk", "kind = torus")))


def test_make_coeffs_kinds():
    assert experiments.make_coeffs("bilaplacian", {}).kind == "bilaplacian"
    c = experiments.make_coeffs("product", {"b00": 4.0, "b11": 1.0})
    assert pl.dual_metric(c, np.array([1.0, 0.0])) == pytest.approx(2.0)
    with pytest.raises(ConfigError):
        experiments.make_coeffs("mystery", {})


def test_fit_drift_exponent_exact_power_law():
    eps = np.array([0.05, 0.1, 0.2, 0.4])
    drift = 3.0 * eps**1.7
    floor = np.zeros_like(eps)
    assert experiments.fit_drift_exponent(eps, drift, floor) == pytest.approx(
        1.7, abs=1e-12)


def test_fit_drift_exponent_needs_two_points():
    eps = np.array([0.1, 0.2])
    drift = np.array([1e-12, 1e-12])
    floor = np.array([1.0, 1.0])
    assert np.isnan(experiments.fit_drift_exponent(eps, drift, floor))


FIT_EPS = np.array([0.04, 0.08, 0.12, 0.16])


@pytest.mark.parametrize("law, exponent", [
    (lambda e: (1.0 - e) ** -4 - 1.0, 1.0),   # exact disk drift law
    (lambda e: e**1.5 * (1.0 + 2.0 * e), 1.5),
    (lambda e: e**2 * (1.0 - e), 2.0),
], ids=["disk_law", "eps1.5", "eps2"])
def test_fit_drift_exponent_recovers_asymptotic_exponent(law, exponent):
    # the window is not asymptotic: a log-log least-squares slope misses
    # each of these by more than 0.05
    drift = law(FIT_EPS)
    floor = np.zeros_like(FIT_EPS)
    assert experiments.fit_drift_exponent(FIT_EPS, drift, floor) == \
        pytest.approx(exponent, abs=0.05)
    order = np.array([2, 0, 3, 1])
    assert experiments.fit_drift_exponent(
        FIT_EPS[order], drift[order], floor) == pytest.approx(exponent, abs=0.05)


def test_cutoff_rayleigh_identity_when_tau_is_one():
    # spectrum on a small concentric disk, cutoff band of the big disk:
    # tau = 1 at every interior node, so the bound is the eigenvalue itself
    outer = pl.disk(1.0)
    grid, mask = pl.build_grid(pl.disk(0.4), 1.0 / 32)
    dist = pl.euclidean_from_sdf(outer, grid, mask)
    Q0 = assembly.assemble_Q0(grid, mask)
    mass = assembly.assemble_weighted(grid, mask, None, "mass", 0.0, 1)
    spec = pl.lowest_eigenpairs(Q0, mass, m=3)
    cutoff = pl.build_cutoff(dist, 0.15)
    bounds = experiments.cutoff_rayleigh_bound(spec, cutoff, Q0)
    assert np.allclose(bounds, spec.values, rtol=1e-10)


def test_eroded_hessian_bound_disk_closed_form():
    # |hess r| = 1/r in the (1,1,2) norm, so on the unit disk the sup over
    # the band eps + 2h < d < 2 eps tends to 1/(1 - 2 eps)
    dom = pl.disk(1.0)
    for h in (1.0 / 48, 1.0 / 64, 1.0 / 96):
        grid, mask = pl.build_grid(dom, h)
        dist = pl.euclidean_from_sdf(dom, grid, mask)
        for eps in (0.1, 0.2):
            got = experiments.measure_eroded_hessian_bound(dist, eps)
            assert got == pytest.approx(1.0 / (1.0 - 2.0 * eps), rel=5e-3)


def test_erosion_study_rows_and_ball_law(disk32):
    report = experiments.run_erosion_study(
        disk32.domain, pl.bilaplacian(), disk32.grid, disk32.mask, 2,
        [0.125, 0.25], pl.lowest_eigenpairs)
    assert len(report.rows) == 4
    for r in report.rows:
        assert r.drift > 0
        assert r.lam_tilde <= r.rayleigh_upper * (1 + 1e-10)
        assert np.isfinite(r.ball_law_error)
    assert set(report.fitted_exponent) == {1, 2}


def test_erosion_study_samples_the_sdf_once(disk32):
    # the eroded node sets, the cutoffs and the Hessian bounds all read the
    # one Euclidean distance built from the sdf
    lattice = (disk32.grid.ny, disk32.grid.nx)
    calls = []
    sdf = disk32.domain.sdf
    domain = dataclasses.replace(
        disk32.domain,
        sdf=lambda x, y: calls.append(np.shape(x) == lattice) or sdf(x, y))
    experiments.run_erosion_study(
        domain, pl.bilaplacian(), disk32.grid, disk32.mask, 2,
        [0.125, 0.25, 0.375], pl.lowest_eigenpairs)
    assert calls == [True]


def test_erosion_study_rejects_thin_eps(disk32):
    with pytest.raises(ConfigError):
        experiments.run_erosion_study(
            disk32.domain, pl.bilaplacian(), disk32.grid, disk32.mask, 1,
            [2.0 * disk32.h], pl.lowest_eigenpairs)


def test_stability_csv_header_and_reproducibility(tmp_path):
    cfg = _write_cfg(tmp_path, BASE_CFG.replace("m = 3", "m = 1"))
    csv = []
    for out in (tmp_path / "a", tmp_path / "b"):
        assert cli_main(["erode", "--config", cfg, "--out", str(out)]) == 0
        csv.append((out / "stability.csv").read_bytes())
    assert csv[0] == csv[1]
    header = csv[0].split(b"\n", 1)[0].decode()
    assert header == "n,eps,lambda,lambda_tilde,drift,rayleigh_upper,ball_law_error"


def test_write_csv_reads_back_exactly(tmp_path):
    sum17 = np.float64(0.1) + np.float64(0.2)
    assert float("%.16g" % sum17) != sum17   # needs all 17 digits
    rows = [(7, "STABLE", 0.1, sum17, np.float64(-2.5e-300)),
            (np.int64(-3), "BLOWUP", 1e300, np.float64("nan"), float("nan"))]
    path = tmp_path / "t.csv"
    cli._write_csv(str(path), "n,flag,a,b,c", rows)
    lines = path.read_text().split("\n")
    assert lines[0] == "n,flag,a,b,c" and lines[-1] == ""
    assert lines[1].split(",")[:4] == ["7", "STABLE", "0.10000000000000001",
                                       "0.30000000000000004"]
    assert len(lines) == len(rows) + 2
    for line, row in zip(lines[1:], rows):
        n, flag, *floats = line.split(",")
        assert int(n) == row[0] and flag == row[1]
        for text, v in zip(floats, row[2:]):
            assert float(text) == v or (np.isnan(v) and text == "nan")


# open, json.dump, numpy's writers and the array method, pathlib's writers
FILE_WRITERS = ("open", "dump", "save", "savez", "savez_compressed",
                "savetxt", "tofile", "write_text", "write_bytes")


def _file_writes(path):
    """(module, name) of every call to one of ``FILE_WRITERS``, in any
    spelling, in one source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            f = node.func
            name = getattr(f, "attr", getattr(f, "id", None))
            if name in FILE_WRITERS:
                found.append((path.stem, name))
    return found


def test_file_writes_flags_every_writer(tmp_path):
    calls = ["open(p)", "json.dump(x, f)", "np.save(p, a)",
             "np.savez(f, a=a)", "numpy.savez_compressed(p, a=a)",
             "np.savetxt(p, a)", "a.tofile(p)", "Path(p).write_text(t)",
             "p.write_bytes(b)", "np.load(p)", "p.read_text()"]
    path = tmp_path / "mod.py"
    path.write_text("\n".join(calls) + "\n")
    assert [name for _, name in _file_writes(path)] == list(FILE_WRITERS)


def test_only_cli_writes_files():
    # the library returns data; the CLI alone knows the output formats
    src = Path(cli.__file__).resolve().parent
    found = {u for p in sorted(src.glob("*.py")) for u in _file_writes(p)}
    assert found == {("cli", "open"), ("cli", "dump"), ("cli", "savez")}


def _fresh(*args, env=os.environ):
    """``python *args`` in a fresh interpreter that imports this platelab."""
    env = dict(env, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1]),
         env.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_import_leaves_scipy_optimize_out():
    # its import costs more than the ellipticity window it could polish
    probe = "import sys, platelab.cli; print('scipy.optimize' in sys.modules)"
    done = _fresh("-c", probe)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("first, preset, expected", [
    ("", None, "1"),
    ("", "3", "3"),
    ("import numpy\n", None, "None"),
], ids=["unset", "preset", "numpy_first"])
def test_cli_import_defaults_blas_to_one_thread(first, preset, expected):
    # a process that loaded numpy before the CLI keeps its BLAS threads
    probe = (first + "import os, platelab.cli\n"
             "print(os.environ.get('OMP_NUM_THREADS'))")
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    if preset is not None:
        env["OMP_NUM_THREADS"] = preset
    done = _fresh("-c", probe, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == expected


SCIPY_LOADED = ("print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))")


_DISTANCE_PROBE = ("import sys\nfrom platelab.cli import cli_main\n"
                   "assert cli_main(['distance', '--config', sys.argv[1],"
                   " '--out', sys.argv[2]]) == 0\n")


@pytest.mark.parametrize("probe, text", [
    (_DISTANCE_PROBE, BASE_CFG),
    ("import sys, platelab\nplatelab.load_config(sys.argv[1])\n", BASE_CFG),
    (_DISTANCE_PROBE, BASE_CFG.replace("kind = disk\nradius = 1.0",
                                       "kind = superellipse\na = 1\nb = 0.7\n"
                                       "p = 4")),
], ids=["distance", "load_config", "distance_superellipse"])
def test_distance_and_config_loading_leave_scipy_out(tmp_path, probe, text):
    # neither builds a sparse matrix, so neither pays for importing scipy
    done = _fresh("-c", probe + SCIPY_LOADED, _write_cfg(tmp_path, text),
                  str(tmp_path / "out"))
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


_SOLVER_PROBE = ("import sys\nfrom platelab.cli import cli_main\n"
                 "assert cli_main(sys.argv[1:]) == 0\n"
                 "print([m in sys.modules for m in "
                 "('scipy.sparse.linalg', 'scipy.linalg')])")


@pytest.mark.parametrize("warm", ["spectrum", "decay"])
def test_cli_reading_stored_eigenpairs_imports_no_solver(tmp_path, warm):
    # only factor and lowest_eigenpairs import scipy.sparse.linalg; the cold
    # run shows that the probe sees the module when it is loaded
    args = [warm, "--config", _write_cfg(tmp_path),
            "--out", str(tmp_path / "out")]
    cold = _fresh("-c", _SOLVER_PROBE, "spectrum", *args[1:])
    assert cold.returncode == 0, cold.stderr
    assert cold.stdout.startswith("[True, ")
    done = _fresh("-c", _SOLVER_PROBE, *args)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[False, False]"


def test_cli_entry_point_writes_what_cli_main_writes(tmp_path):
    # the entry point adds only gc.freeze after cli_main; the reference is
    # cli_main in a fresh interpreter too, since the BLAS thread count the
    # CLI sets on import enters the last bits
    cfg = _write_cfg(tmp_path)
    main = _fresh("-m", "platelab.cli", "spectrum", "--config", cfg,
                  "--out", str(tmp_path / "main"))
    assert main.returncode == 0, main.stderr
    assert main.stdout == main.stderr == ""
    ref = _fresh("-c", _SOLVER_PROBE, "spectrum", "--config", cfg,
                 "--out", str(tmp_path / "ref"))
    assert ref.returncode == 0, ref.stderr
    assert (tmp_path / "main" / "spectrum.csv").read_bytes() == \
        (tmp_path / "ref" / "spectrum.csv").read_bytes()


def test_cli_entry_point_config_error_exit_2(tmp_path):
    done = _fresh("-m", "platelab.cli", "spectrum",
                  "--config", str(tmp_path / "missing.cfg"))
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.endswith("\n") and done.stderr.count("\n") == 1
    assert json.loads(done.stderr)["error"] == "ConfigError"


def test_cli_main_leaves_the_collector_alone(tmp_path):
    # tests and the benchmark call cli_main many times in one interpreter
    assert cli_main(["spectrum", "--config", _write_cfg(tmp_path),
                     "--out", str(tmp_path / "out")]) == 0
    assert gc.get_freeze_count() == 0
    assert gc.isenabled()


def test_cli_spectrum_success(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    code = cli_main(["spectrum", "--config", cfg, "--out", str(out)])
    assert code == 0
    lines = (out / "spectrum.csv").read_text().strip().split("\n")
    assert lines[0] == "index,value,residual"
    assert len(lines) == 4


def test_cli_distance_bilaplacian_solves_once(tmp_path):
    # p* = |xi| for the bilaplacian: the one Finsler solve is the Euclidean
    # distance the sdf gives, to rounding
    out = tmp_path / "out"
    assert cli_main(["distance", "--config", _write_cfg(tmp_path),
                     "--out", str(out)]) == 0
    dom = pl.disk(1.0)
    grid, mask = pl.build_grid(dom, 0.0625)
    rows = np.loadtxt(out / "distance.csv", delimiter=",", skiprows=1)
    assert np.max(np.abs(rows[:, 2] - rows[:, 3])) <= 1e-15
    assert np.array_equal(
        rows[:, 3], pl.euclidean_from_sdf(dom, grid, mask).interior_values())
    stats = json.loads((out / "distance.json").read_text())
    assert abs(stats["c1_hat"] - 1.0) <= 1e-12
    assert abs(stats["c2_hat"] - 1.0) <= 1e-12


def test_cli_distance_anisotropic_euclidean_column(tmp_path):
    # rect_aniso at h = 1/16: the Euclidean column comes from the sdf
    text = BASE_CFG.replace("kind = disk\nradius = 1.0",
                            "kind = rectangle\nwidth = 2.0\nheight = 1.0")
    text = text.replace("kind = bilaplacian",
                        "kind = diagonal\na00 = 16.0\na11 = 1.0")
    out = tmp_path / "out"
    assert cli_main(["distance", "--config", _write_cfg(tmp_path, text),
                     "--out", str(out)]) == 0
    dom = pl.rectangle(2.0, 1.0)
    grid, mask = pl.build_grid(dom, 0.0625)
    coeffs = pl.diagonal(np.array([[16.0, 0.0], [0.0, 1.0]]))
    df = pl.finsler_distance(dom, grid, mask, coeffs)
    de = pl.euclidean_from_sdf(dom, grid, mask)
    rows = np.loadtxt(out / "distance.csv", delimiter=",", skiprows=1)
    assert np.array_equal(rows[:, 2], df.interior_values())
    assert np.array_equal(rows[:, 3], de.interior_values())
    stats = json.loads((out / "distance.json").read_text())
    assert (stats["c1_hat"], stats["c2_hat"]) == \
        pl.equivalence_constants(df, de)
    assert stats["c1_hat"] < stats["c2_hat"]


def _diagonal_cfg(a01):
    """BASE_CFG on the 2 x 1 rectangle with diagonal a00 = a11 = 1."""
    text = BASE_CFG.replace("kind = disk\nradius = 1.0",
                            "kind = rectangle\nwidth = 2.0\nheight = 1.0")
    return text.replace("kind = bilaplacian",
                        f"kind = diagonal\na00 = 1.0\na11 = 1.0\na01 = {a01}")


@pytest.mark.parametrize("command", ["distance", "palpha"])
def test_cli_nonconvex_symbol_exit_2(tmp_path, capsys, monkeypatch, command):
    # {q <= 1} is convex for diagonal exactly when a01 <= 3 sqrt(a00 a11);
    # the Finsler distance assumes it, so a01 = 7 is refused before any
    # assembly or distance
    calls = []
    for mod, name in ((assembly, "assemble_Q"), (finsler, "finsler_distance")):
        fn = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda *a, _fn=fn, **k:
                            calls.append(1) or _fn(*a, **k))
    text = _diagonal_cfg(7.0)
    out = tmp_path / "out"
    code = cli_main([command, "--config", _write_cfg(tmp_path, text),
                     "--out", str(out)])
    assert code == 2
    assert "not convex" in _error(capsys)
    assert calls == []
    assert list(out.iterdir()) == []


def test_cli_convex_limit_symbol_runs(tmp_path):
    # a01 = 3 sqrt(a00 a11) is the convex limit (l4 turned by 45 degrees)
    text = _diagonal_cfg(3.0)
    out = tmp_path / "out"
    assert cli_main(["distance", "--config", _write_cfg(tmp_path, text),
                     "--out", str(out)]) == 0
    stats = json.loads((out / "distance.json").read_text())
    assert 0.0 < stats["c1_hat"] < stats["c2_hat"]


def test_cli_config_error_exit_2(tmp_path, capsys):
    code = cli_main(["spectrum", "--config", str(tmp_path / "missing.cfg")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "missing.cfg" in err["message"]


def _error(capsys, kind="ConfigError"):
    """The message of the one JSON error line on stderr, of type ``kind``."""
    err = capsys.readouterr().err
    assert err.endswith("\n") and err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == kind
    return payload["message"]



def test_cli_out_names_a_file_exit_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    code = cli_main(["spectrum", "--config", _write_cfg(tmp_path),
                     "--out", str(taken)])
    assert code == 2
    assert str(taken) in _error(capsys)


def test_cli_config_not_utf8_exit_2(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(BASE_CFG.replace("[run]", "[run]\n; caf\xe9")
                     .encode("latin-1"))
    code = cli_main(["spectrum", "--config", str(path),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert "utf-8" in _error(capsys)


def test_cli_config_directory_exit_2(tmp_path, capsys):
    code = cli_main(["spectrum", "--config", str(tmp_path),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert _error(capsys) == f"config file not found: {tmp_path}"


@pytest.mark.parametrize("command", ["spectrum", "distance", "hardy",
                                     "palpha", "erode"])
def test_cli_allow_blowup_belongs_to_decay(tmp_path, capsys, command):
    out = tmp_path / "out"
    code = cli_main([command, "--config", _write_cfg(tmp_path),
                     "--out", str(out), "--allow-blowup"])
    assert code == 2
    assert "--allow-blowup" in _error(capsys)
    assert not out.exists()


_DISK = "kind = disk\nradius = 1.0"
_PERTURB = "[perturbation]\ndelta = {}\n\n[run]"

# id: (command, {old: new} edits of BASE_CFG, extra arguments).  Unchecked,
# each value ends in a traceback, a solver-stage failure, or a run that
# silently ignores it.
BAD_CONFIGS = {
    "radius_negative": ("spectrum", {"radius = 1.0": "radius = -1"}, []),
    "radius_missing": ("spectrum", {"radius = 1.0\n": ""}, []),
    "rectangle_width_0": ("spectrum", {
        _DISK: "kind = rectangle\nwidth = 0\nheight = 1"}, []),
    "superellipse_p_1": ("spectrum", {
        _DISK: "kind = superellipse\na = 1\nb = 1\np = 1"}, []),
    "superellipse_a_0": ("spectrum", {
        _DISK: "kind = superellipse\na = 0\nb = 1\np = 4",
        "eps = 0.25": "eps ="}, []),
    "diagonal_a00_negative": ("spectrum", {
        "kind = bilaplacian": "kind = diagonal\na00 = -1\na11 = 1"}, []),
    "diagonal_a11_missing": ("spectrum", {
        "kind = bilaplacian": "kind = diagonal\na00 = 1"}, []),
    "tol_nan": ("spectrum", {"tol = 1e-8": "tol = nan"}, []),
    "eps_nan": ("spectrum", {"eps = 0.25": "eps = nan"}, []),
    "tol_negative": ("spectrum", {"tol = 1e-8": "tol = -1"}, []),
    "seed_negative": ("spectrum", {"seed = 42": "seed = -1"}, []),
    "seed_flag_negative": ("spectrum", {}, ["--seed", "-1"]),
    "delta_negative": ("palpha", {"[run]": _PERTURB.format("-0.01")}, []),
    "delta_inf": ("palpha", {"[run]": _PERTURB.format("inf")}, []),
    "h_inf": ("spectrum", {"h = 0.0625": "h = inf", "eps = 0.25": "eps ="},
              []),
    "h_0": ("spectrum", {"h = 0.0625": "h = 0"}, []),
    "radius_nan": ("spectrum", {"radius = 1.0": "radius = nan"}, []),
    "radius_inf": ("spectrum", {"radius = 1.0": "radius = inf"}, []),
    "diagonal_a00_inf": ("spectrum", {
        "kind = bilaplacian": "kind = diagonal\na00 = inf\na11 = 1"}, []),
    # symbols that vanish on a direction: the operator is not elliptic
    "diagonal_a00_0": ("spectrum", {
        "kind = bilaplacian": "kind = diagonal\na00 = 0\na11 = 1"}, []),
    "product_indefinite": ("spectrum", {
        "kind = bilaplacian": "kind = product\nb00 = 1\nb11 = -1"}, []),
    "product_singular": ("spectrum", {
        "kind = bilaplacian": "kind = product\nb00 = 1\nb11 = 1\nb01 = 1"},
        []),
    # a repeated value solves the same problem twice: erode fits a NaN
    # drift exponent, and decay.csv repeats its rows
    "eps_repeated": ("erode", {"eps = 0.25": "eps = 0.25 0.25"}, []),
    "alphas_repeated": ("decay", {"alphas = 0.25": "alphas = 0.25 0.25"},
                        []),
    "n_sweep_repeated": ("decay", {
        "eps = 0.25": "eps = 0.25\nn_sweep = 16 16"}, []),
    # unchecked, an empty list would write an empty result
    "eps_empty_erode": ("erode", {"eps = 0.25": "eps ="}, []),
    "alphas_empty_decay": ("decay", {"alphas = 0.25": "alphas ="}, []),
    "alphas_empty_decay_blowup": ("decay", {"alphas = 0.25": "alphas ="},
                                  ["--allow-blowup"]),
    "alphas_empty_palpha": ("palpha", {"alphas = 0.25": "alphas ="}, []),
    # a key or section that is not read would leave its default in force
    "diagonal_b01": ("palpha", {
        "kind = bilaplacian": "kind = diagonal\na00 = 16\na11 = 1\nb01 = 3"},
        []),
    "alpha_misspelt": ("palpha", {"alphas = 0.25": "alpha = 0.1 0.4"}, []),
    "tolerance_misspelt": ("palpha", {"tol = 1e-8": "tolerance = 1e-3"}, []),
    "sed_misspelt": ("palpha", {"seed = 42": "sed = 7"}, []),
    "perturbations_section": ("palpha", {
        "[run]": "[perturbations]\ndelta = 0.01\n\n[run]"}, []),
}


@pytest.mark.parametrize("command, edits, extra", BAD_CONFIGS.values(),
                         ids=BAD_CONFIGS.keys())
def test_cli_bad_config_value_exit_2(tmp_path, capsys, command, edits,
                                     extra):
    text = BASE_CFG
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    code = cli_main([command, "--config", _write_cfg(tmp_path, text),
                     "--out", str(tmp_path / "out")] + extra)
    assert code == 2
    err = capsys.readouterr().err
    assert err.endswith("\n") and err.count("\n") == 1
    assert json.loads(err)["error"] == "ConfigError"


# BAD_CONFIGS id: what the error names
UNREAD = {
    "diagonal_b01": "'b01' in [operator] for kind 'diagonal'",
    "alpha_misspelt": "'alpha' in [sweeps]",
    "tolerance_misspelt": "'tolerance' in [spectral]",
    "sed_misspelt": "'sed' in [run]",
    "perturbations_section": "section [perturbations]",
}


@pytest.mark.parametrize("case, named", UNREAD.items(), ids=UNREAD.keys())
def test_load_config_names_what_it_does_not_read(tmp_path, case, named):
    text = BASE_CFG
    for old, new in BAD_CONFIGS[case][1].items():
        text = text.replace(old, new)
    with pytest.raises(ConfigError, match=re.escape(named)):
        experiments.load_config(_write_cfg(tmp_path, text))


def test_cli_n_sweep_below_one_exit_2(tmp_path, capsys):
    cfg_text = BASE_CFG.replace("eps = 0.25", "eps = 0.25\nn_sweep = 0 8")
    code = cli_main(["decay", "--config", _write_cfg(tmp_path, cfg_text),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "n_sweep" in err["message"]


def test_cli_unknown_subcommand_exit_2(tmp_path, capsys):
    code = cli_main(["frobnicate", "--config", "x"])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"


def test_cli_solver_failure_exit_3(tmp_path, capsys):
    # a grid far too coarse for the domain is a solver-stage failure
    tiny = BASE_CFG.replace("radius = 1.0", "radius = 0.05") \
                   .replace("eps = 0.25", "eps =")
    code = cli_main(["spectrum", "--config", _write_cfg(tmp_path, tiny)])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "GridTooCoarse"


def test_cli_decay_guards_blowup_alphas(tmp_path, capsys):
    cfg_text = BASE_CFG.replace("alphas = 0.25", "alphas = 0.6")
    cfg = _write_cfg(tmp_path, cfg_text)
    out = tmp_path / "out"
    code = cli_main(["decay", "--config", cfg, "--out", str(out)])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
    code = cli_main(["decay", "--config", cfg, "--out", str(out),
                     "--allow-blowup"])
    assert code == 0
    lines = (out / "decay.csv").read_text().strip().split("\n")
    assert lines[0] == "alpha,n_reg,lhs,rhs,c_hat,flag"
    assert all(l.endswith("BLOWUP") for l in lines[1:])


def test_cli_erode_outputs(tmp_path):
    cfg = _write_cfg(tmp_path, BASE_CFG.replace("m = 3", "m = 1"))
    out = tmp_path / "out"
    code = cli_main(["erode", "--config", cfg, "--out", str(out)])
    assert code == 0

    def not_json(name):
        raise ValueError(f"{name} is not JSON")

    # one eps fits no exponent: NaN, written as null
    payload = json.loads((out / "stability.json").read_text(),
                         parse_constant=not_json)
    assert "fitted_exponent" in payload and "hess_deps_bound" in payload
    assert set(payload["fitted_exponent"].values()) == {None}
    lines = (out / "stability.csv").read_text().strip().split("\n")
    assert lines[0] == \
        "n,eps,lambda,lambda_tilde,drift,rayleigh_upper,ball_law_error"
    assert len(lines) == 2


def _factored_sizes(monkeypatch):
    """The row count of every form that ``spectral.factor`` factors."""
    sizes = []
    fn = spectral.factor
    monkeypatch.setattr(spectral, "factor", lambda A, *a, **k: sizes.append(
        spectral._as_matrix(A).shape[0]) or fn(A, *a, **k))
    return sizes


def test_cli_warm_erode_factors_only_the_eroded_forms(tmp_path, monkeypatch):
    # erode's full pencil is the one spectrum stored in the same --out; the
    # h = 1/16 disk has 793 unknowns, 437 of them left at eps = 0.25
    cfg = _write_cfg(tmp_path, BASE_CFG.replace("eps = 0.25",
                                                "eps = 0.25 0.375"))
    cold, warm = tmp_path / "cold", tmp_path / "warm"
    sizes = _factored_sizes(monkeypatch)
    assert cli_main(["erode", "--config", cfg, "--out", str(cold)]) == 0
    assert len(sizes) == 3 and sizes[0] == 793
    assert cli_main(["spectrum", "--config", cfg, "--out", str(warm)]) == 0
    sizes.clear()
    assert cli_main(["erode", "--config", cfg, "--out", str(warm)]) == 0
    assert len(sizes) == 2 and max(sizes) <= 437
    for name in ("stability.csv", "stability.json"):
        assert (warm / name).read_bytes() == (cold / name).read_bytes()


def test_cli_spectrum_after_erode_factors_nothing(tmp_path, monkeypatch):
    cfg = _write_cfg(tmp_path)
    cold, warm = tmp_path / "cold", tmp_path / "warm"
    assert cli_main(["spectrum", "--config", cfg, "--out", str(cold)]) == 0
    assert cli_main(["erode", "--config", cfg, "--out", str(warm)]) == 0
    sizes = _factored_sizes(monkeypatch)
    assert cli_main(["spectrum", "--config", cfg, "--out", str(warm)]) == 0
    assert sizes == []
    assert (warm / "spectrum.csv").read_bytes() == \
        (cold / "spectrum.csv").read_bytes()


def _numbers(path):
    """Column or key path -> the numbers of a CSV or JSON output."""
    if path.suffix == ".json":
        found = collections.defaultdict(list)

        def walk(o, key):
            if isinstance(o, dict):
                for k, v in o.items():
                    walk(v, f"{key}/{k}")
            elif isinstance(o, list):
                for v in o:
                    walk(v, key)
            elif isinstance(o, (int, float)):
                found[key].append(o)

        walk(json.loads(path.read_text()), "")
        return dict(found)
    header, *rows = (line.split(",") for line in path.read_text().split())
    return {name: [float(r[i]) for r in rows]
            for i, name in enumerate(header) if name != "flag"}


def test_cli_mirror_blocks_agree_with_one_lu(tmp_path, monkeypatch):
    # the mirror blocks of each form solve as its one LU does, so every
    # number the eigensolves give agrees to 1e-8; the residual certificates
    # are rounding themselves, and the ball-law error |lambda~ / lambda -
    # (1 - eps)^-4| is the difference of two numbers near lambda~ / lambda,
    # so those agree to 1e-8 absolute and relative to lambda~ / lambda.  At
    # h = 1/64 the disk has 12849 unknowns and the eroded disks 11277 and
    # 10545, all of them above SPLIT_MIN_UNKNOWNS
    cfg = _write_cfg(tmp_path, BASE_CFG.replace(
        "h = 0.0625", "h = 0.015625").replace("eps = 0.25",
                                               "eps = 0.0625 0.09375"))
    mirrors, found = spectral._mirrors, []
    outs = {}
    for split in (True, False):
        monkeypatch.setattr(spectral, "_mirrors", lambda A: found.append(
            mirrors(A) if split else []) or found[-1])
        outs[split] = tmp_path / f"split_{split}"
        for command in ("spectrum", "erode", "decay"):
            assert cli_main([command, "--config", cfg,
                             "--out", str(outs[split])]) == 0
    # the full pencil, then the two eroded ones, with and without blocks
    assert [len(m) for m in found] == [2, 2, 2, 0, 0, 0]
    for name in ("spectrum.csv", "stability.csv", "stability.json",
                 "decay.csv"):
        split, one = (_numbers(outs[s] / name) for s in (True, False))
        assert split.keys() == one.keys()
        for key in split:
            if key == "residual":
                np.testing.assert_allclose(split[key], one[key], rtol=0,
                                           atol=1e-8)
            elif key == "ball_law_error":
                ratio = np.divide(one["lambda_tilde"], one["lambda"])
                assert np.all(np.abs(np.subtract(split[key], one[key]))
                              <= 1e-8 * ratio)
            else:
                np.testing.assert_allclose(split[key], one[key], rtol=1e-8,
                                           atol=0)


_UNPICKLED = []


def _record_unpickling():
    _UNPICKLED.append(1)


class _RecordsUnpickling:
    def __reduce__(self):
        return _record_unpickling, ()


def _store_object_arrays(path):
    obj = np.array([_RecordsUnpickling()], dtype=object)
    np.savez(path, key=obj, values=obj, vectors=obj, residuals=obj)


def _truncate(path):
    path.write_bytes(path.read_bytes()[:1000])


def _other_thread_count(monkeypatch):
    now = os.environ.get("OMP_NUM_THREADS")
    monkeypatch.setenv("OMP_NUM_THREADS", "3" if now == "2" else "2")


@pytest.mark.parametrize("spoil", [
    lambda path, mp: (BASE_CFG, ["--seed", "7"]),
    lambda path, mp: (BASE_CFG.replace("h = 0.0625", "h = 0.05"), []),
    lambda path, mp: _other_thread_count(mp) or (BASE_CFG, []),
    lambda path, mp: _truncate(path) or (BASE_CFG, []),
    lambda path, mp: _store_object_arrays(path) or (BASE_CFG, []),
], ids=["seed", "h", "omp_threads", "truncated", "object_arrays"])
def test_cli_stored_eigenpairs_miss_solves_and_replaces(tmp_path, monkeypatch,
                                                        spoil):
    # a stored file of another pencil, solve or BLAS thread count, or one
    # that does not load without unpickling, is solved afresh and replaced
    out = tmp_path / "out"
    assert cli_main(["spectrum", "--config", _write_cfg(tmp_path),
                     "--out", str(out)]) == 0
    text, args = spoil(out / "eigenpairs_m3.npz", monkeypatch)
    run = ["spectrum", "--config", _write_cfg(tmp_path, text, "miss.cfg"),
           *args, "--out"]
    solves = []
    solve = spectral.lowest_eigenpairs
    monkeypatch.setattr(spectral, "lowest_eigenpairs",
                        lambda *a, **k: solves.append(1) or solve(*a, **k))
    assert cli_main(run + [str(out)]) == 0
    assert len(solves) == 1
    miss = (out / "spectrum.csv").read_bytes()
    assert cli_main(run + [str(out)]) == 0    # reads the replaced file
    assert len(solves) == 1
    assert cli_main(run + [str(tmp_path / "cold")]) == 0
    assert len(solves) == 2
    assert miss == (out / "spectrum.csv").read_bytes() == \
        (tmp_path / "cold" / "spectrum.csv").read_bytes()
    assert sorted(os.listdir(out)) == ["eigenpairs_m3.npz", "spectrum.csv"]
    assert _UNPICKLED == []


def test_cli_palpha_rejects_blowup_alphas(tmp_path, capsys):
    # palpha has no blow-up demonstration (nor an --allow-blowup flag)
    cfg = _write_cfg(tmp_path, BASE_CFG.replace("alphas = 0.25",
                                                "alphas = 0.6"))
    out = tmp_path / "out"
    code = cli_main(["palpha", "--config", cfg, "--out", str(out)])
    assert code == 2
    assert "0.6" in _error(capsys)
    assert not (out / "palpha.json").exists()


@pytest.mark.parametrize("h, n_sweep", [("0.0625", "n_sweep = 16"),
                                        ("0.125", "")],
                         ids=["n_sweep_16", "default_at_h_1_8"])
def test_cli_decay_one_n_level_exit_2(tmp_path, capsys, monkeypatch, h,
                                      n_sweep):
    # the flag compares the two largest levels, so one level measures
    # nothing; the default sweep of h >= 1/8 is the one level round(1/h)
    calls = []
    monkeypatch.setattr(spectral, "lowest_eigenpairs",
                        lambda *a, **k: calls.append(1))
    text = BASE_CFG.replace("h = 0.0625", f"h = {h}") \
        .replace("eps = 0.25", f"eps =\n{n_sweep}")
    out = tmp_path / "out"
    code = cli_main(["decay", "--config", _write_cfg(tmp_path, text),
                     "--out", str(out)])
    assert code == 2
    assert "n_sweep" in _error(capsys)
    assert calls == []
    assert not (out / "decay.csv").exists()


def test_cli_decay_reads_the_stored_pencil(tmp_path, monkeypatch):
    # decay reads pair 0 of the m eigenpairs that spectrum and erode store,
    # so after either it factors nothing, and every output is the same
    # whichever command ran first
    cfg = _write_cfg(tmp_path)
    cold = tmp_path / "cold"
    for command in ("decay", "spectrum"):
        assert cli_main([command, "--config", cfg,
                         "--out", str(cold / command)]) == 0
    sizes = _factored_sizes(monkeypatch)
    for first in ("spectrum", "erode"):
        warm = tmp_path / first
        assert cli_main([first, "--config", cfg, "--out", str(warm)]) == 0
        sizes.clear()
        assert cli_main(["decay", "--config", cfg, "--out", str(warm)]) == 0
        assert sizes == []
        assert (warm / "decay.csv").read_bytes() == \
            (cold / "decay" / "decay.csv").read_bytes()
    warm = tmp_path / "erode"
    assert cli_main(["spectrum", "--config", cfg, "--out", str(warm)]) == 0
    assert sizes == []
    assert (warm / "spectrum.csv").read_bytes() == \
        (cold / "spectrum" / "spectrum.csv").read_bytes()
    assert sorted(p.name for p in cold.glob("*/eigenpairs_m*.npz")) == \
        ["eigenpairs_m3.npz"] * 2
    assert [p.name for p in warm.glob("eigenpairs_m*.npz")] == \
        ["eigenpairs_m3.npz"]


def test_cli_failed_store_leaves_no_temporary_file(tmp_path, capsys,
                                                   monkeypatch):
    # a store that cannot be written exits 2, and its temporary file goes
    def refuse(*a, **k):
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", refuse)
    out = tmp_path / "out"
    code = cli_main(["spectrum", "--config", _write_cfg(tmp_path),
                     "--out", str(out)])
    assert code == 2
    assert _error(capsys, "OSError") == "disk full"
    assert os.listdir(out) == []


def test_cli_unwritable_result_exit_2(tmp_path, capsys):
    # a directory in the result's place refuses the write, even to root
    out = tmp_path / "out"
    (out / "spectrum.csv").mkdir(parents=True)
    code = cli_main(["spectrum", "--config", _write_cfg(tmp_path),
                     "--out", str(out)])
    assert code == 2
    assert "spectrum.csv" in _error(capsys, "OSError")


def test_cli_m_not_below_dof_count_exit_2(tmp_path, capsys, monkeypatch):
    # the h = 1/16 disk has 793 unknowns; m is checked before any eigensolve
    calls = []
    monkeypatch.setattr(spectral, "lowest_eigenpairs",
                        lambda *a, **k: calls.append(1))
    cfg = _write_cfg(tmp_path, BASE_CFG.replace("m = 3", "m = 5000"))
    for command in ("spectrum", "erode", "decay"):
        code = cli_main([command, "--config", cfg,
                         "--out", str(tmp_path / "out")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "793" in err["message"]
    assert calls == []


def test_cli_erode_m_not_below_eroded_dof_count_exit_2(tmp_path, capsys,
                                                       monkeypatch):
    # eroding the h = 1/16 disk by eps = 0.25 leaves 437 of 793 unknowns;
    # the eroded grids are checked before any eigensolve
    calls = []
    for mod in (spectral,):
        solve = mod.lowest_eigenpairs
        monkeypatch.setattr(mod, "lowest_eigenpairs",
                            lambda *a, _solve=solve, **k:
                            calls.append(1) or _solve(*a, **k))
    cfg = _write_cfg(tmp_path, BASE_CFG.replace("m = 3", "m = 600"))
    code = cli_main(["erode", "--config", cfg,
                     "--out", str(tmp_path / "out")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "437" in err["message"]
    assert calls == []


def test_cli_palpha_builds_perturbation_once(tmp_path, monkeypatch):
    # the perturbed tensor's window is read as often for two alphas as for
    # one: the tensor and its form are built once, outside the alpha loop
    kinds = []
    window = assembly.ellipticity_window
    monkeypatch.setattr(assembly, "ellipticity_window",
                        lambda c: kinds.append(c.kind) or window(c))
    counts = []
    for alphas in ("0.25", "0.1 0.25"):
        text = BASE_CFG.replace("alphas = 0.25", f"alphas = {alphas}") \
            + "\n[perturbation]\ndelta = 0.01\n"
        out = tmp_path / "out"
        assert cli_main(["palpha", "--config", _write_cfg(tmp_path, text),
                         "--out", str(out)]) == 0
        counts.append(kinds.count("perturbed"))
        kinds.clear()
    assert counts[0] == counts[1] > 0
    payload = json.loads((out / "palpha.json").read_text())
    assert sorted(payload) == ["0.1", "0.25"]
    assert all("perturbed" in entry for entry in payload.values())


def test_cli_palpha_non_elliptic_perturbation_exit_2(tmp_path, capsys,
                                                    monkeypatch):
    # at seed 42 the delta = 2.5 perturbation of the bilaplacian loses
    # ellipticity (at seed 1 it does not); it is checked before any eigensolve
    calls = []
    for mod in (spectral,):
        solve = mod.lowest_eigenpairs
        monkeypatch.setattr(mod, "lowest_eigenpairs",
                            lambda *a, _solve=solve, **k:
                            calls.append(1) or _solve(*a, **k))
    text = BASE_CFG + "\n[perturbation]\ndelta = 2.5\n"
    out = tmp_path / "out"
    code = cli_main(["palpha", "--config", _write_cfg(tmp_path, text),
                     "--out", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "delta=2.5" in err["message"]
    assert calls == []
    assert not (out / "palpha.json").exists()


def test_cli_hardy_writes_three_pencils(tmp_path):
    text = BASE_CFG.replace("eps = 0.25", "eps = 0.25\nn_sweep = 4 8")
    out = tmp_path / "out"
    assert cli_main(["hardy", "--config", _write_cfg(tmp_path, text),
                     "--out", str(out)]) == 0
    reports = json.loads((out / "hardy.json").read_text())
    assert sorted(reports) == ["hardy_grad", "rellich_grad", "rellich_mass"]


def test_cli_hardy_certifies_at_the_configured_tol(tmp_path, monkeypatch):
    # [spectral] tol reaches each of the three pencils' solves at every n
    text = (BASE_CFG.replace("eps = 0.25", "eps = 0.25\nn_sweep = 4 8")
            .replace("tol = 1e-8", "tol = 1e-3"))
    tols = []
    solve = verifier.lowest_eigenpairs
    monkeypatch.setattr(verifier, "lowest_eigenpairs", lambda *a, **k:
                        tols.append(k["tol"]) or solve(*a, **k))
    assert cli_main(["hardy", "--config", _write_cfg(tmp_path, text),
                     "--out", str(tmp_path / "out")]) == 0
    assert tols == [1e-3] * 6


def test_cli_hardy_reads_kinds_in_any_case(tmp_path):
    # load_config lower-cases both kinds, so hardy's operator check and
    # make_domain / make_coeffs read the same name
    text = (BASE_CFG.replace("eps = 0.25", "eps = 0.25\nn_sweep = 4 8")
            .replace("kind = disk", "kind = Disk")
            .replace("kind = bilaplacian", "kind = Bilaplacian"))
    cfg = _write_cfg(tmp_path, text)
    assert cli_main(["hardy", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 0
    loaded = experiments.load_config(cfg)
    assert (loaded.domain_kind, loaded.operator_kind) == ("disk",
                                                          "bilaplacian")


def test_cli_decay_builds_difference_ops_once_per_alpha(tmp_path,
                                                        monkeypatch):
    # verify_decay builds the dof rows of its own alpha
    calls = []
    for mod in (assembly, verifier):
        ops = mod.interior_difference_ops
        monkeypatch.setattr(mod, "interior_difference_ops",
                            lambda *a, _ops=ops, **k:
                            calls.append(1) or _ops(*a, **k))
    text = BASE_CFG.replace("alphas = 0.25", "alphas = 0.1 0.25 0.4")
    out = tmp_path / "out"
    assert cli_main(["decay", "--config", _write_cfg(tmp_path, text),
                     "--out", str(out)]) == 0
    assert len(calls) == 3
    lines = (out / "decay.csv").read_text().strip().split("\n")
    assert {float(line.split(",")[0]) for line in lines[1:]} == {0.1, 0.25,
                                                                 0.4}


HESSIAN, GRADIENT = ("Dxx", "Dyy", "Dxy"), ("Gx", "Gy")
LAPLACIAN = HESSIAN[:2]  # the stencils that the bilaplacian's tensor reads


def _count_builds(monkeypatch):
    """Counter of ``factor`` calls and of difference-operator builds, keyed
    by (the stencils built, whether every lattice row is)."""
    calls = collections.Counter()
    for mod in (spectral, verifier):
        fn = mod.factor
        monkeypatch.setattr(mod, "factor", lambda *a, _fn=fn, **k:
                            calls.update(["factor"]) or _fn(*a, **k))
    build = assembly.difference_ops

    def counted(grid, mask, names=HESSIAN + GRADIENT, rows=None):
        calls.update([(tuple(names), rows is None)])
        return build(grid, mask, names, rows)

    for mod in (assembly, verifier):
        monkeypatch.setattr(mod, "difference_ops", counted)
    return calls


def test_cli_hardy_factors_each_form_once(tmp_path, monkeypatch):
    # one LU of the grad form and one of Q0 for both Rellich pencils; each
    # build reads only its own stencils: the Dxx and Dyy rows of Q0 and the
    # gradient rows of the power-0 grad form on the lattice, and the
    # gradient dof rows of each rellich_grad weight
    cfg = str(Path(__file__).resolve().parents[1] / "configs" / "disk.cfg")
    loaded = experiments.load_config(cfg)
    calls = _count_builds(monkeypatch)
    out = tmp_path / "out"
    assert cli_main(["hardy", "--config", cfg, "--out", str(out)]) == 0
    assert dict(calls) == {"factor": 2, (LAPLACIAN, True): 1,
                           (GRADIENT, True): 1,
                           (GRADIENT, False): len(loaded.n_sweep)}
    reports = json.loads((out / "hardy.json").read_text())
    # the same reports as three pencils that each factor their own form
    domain = experiments.make_domain(loaded.domain_kind, loaded.domain_params)
    grid, mask = pl.build_grid(domain, loaded.h)
    dist = pl.euclidean_from_sdf(domain, grid, mask)
    Q0 = assembly.assemble_Q0(grid, mask)
    grad = assembly.assemble_weighted(grid, mask, None, "grad", 0.0, 1)
    calls.clear()
    for kind, A in (("hardy_grad", grad), ("rellich_mass", Q0),
                    ("rellich_grad", Q0)):
        rep = verifier.estimate_hardy_constant(A, dist, kind,
                                               seed=loaded.seed)
        assert reports[kind] == cli._plain(dataclasses.asdict(rep))
    assert calls["factor"] == 3


def test_cli_palpha_builds_three_hessians_and_hessian_rows_per_alpha(
        tmp_path, monkeypatch):
    # Q, Q~ and Q0 each build the Hessian rows that their tensor reads on
    # the lattice (Q~ is perturbed, so it reads Dxy; the bilaplacian Q and
    # Q0 do not), and the cross-term constant of each alpha the Hessian dof
    # rows, no gradient
    calls = _count_builds(monkeypatch)
    text = BASE_CFG.replace("alphas = 0.25", "alphas = 0.1 0.25 0.4") \
        + "\n[perturbation]\ndelta = 0.01\n"
    out = tmp_path / "out"
    assert cli_main(["palpha", "--config", _write_cfg(tmp_path, text),
                     "--out", str(out)]) == 0
    assert dict(calls) == {"factor": 1, (HESSIAN, True): 1,
                           (LAPLACIAN, True): 2, (HESSIAN, False): 3}
    payload = json.loads((out / "palpha.json").read_text())
    assert sorted(payload) == ["0.1", "0.25", "0.4"]
    assert all("error" not in entry["perturbed"] for entry in payload.values())


def test_cli_hardy_non_bilaplacian_exit_2(tmp_path, capsys, monkeypatch):
    # hardy's pencils use Q0 and the Euclidean distance whatever the
    # operator, so another operator is refused before any eigensolve
    calls = []
    for mod in (verifier, spectral):
        solve = mod.lowest_eigenpairs
        monkeypatch.setattr(mod, "lowest_eigenpairs",
                            lambda *a, _solve=solve, **k:
                            calls.append(1) or _solve(*a, **k))
    text = BASE_CFG.replace("kind = bilaplacian",
                            "kind = diagonal\na00 = 16.0\na11 = 1.0")
    out = tmp_path / "out"
    code = cli_main(["hardy", "--config", _write_cfg(tmp_path, text),
                     "--out", str(out)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "diagonal" in err["message"]
    assert calls == []
    assert not (out / "hardy.json").exists()


def _kind_cases():
    """(section, kind, its keys with a value each, a key of another kind of
    the same section) for every kind ``experiments._SCHEMA`` declares."""
    cases = []
    for section in ("domain", "operator"):
        kinds = experiments._SCHEMA[section]
        for kind, (_, keys) in kinds.items():
            # 2 makes every domain kind a domain (a superellipse needs p >= 2)
            # and every operator kind elliptic, off-diagonals at their 0
            values = {k: 2.0 if d is None else d for k, d in keys.items()}
            other = next(k for o in kinds.values() for k in o[1]
                         if k not in keys)
            cases.append((section, kind, values, other))
    return cases


def _kind_cfg(section, kind, values):
    """BASE_CFG with [section] replaced by ``kind`` and ``values``."""
    old = {"domain": _DISK, "operator": "kind = bilaplacian"}[section]
    lines = [f"kind = {kind}"] + [f"{k} = {v}" for k, v in values.items()]
    return BASE_CFG.replace(old, "\n".join(lines))


KIND_CASES = _kind_cases()


@pytest.mark.parametrize("section, kind, values, other", KIND_CASES,
                         ids=[f"{s}-{k}" for s, k, _, _ in KIND_CASES])
def test_every_declared_kind_reads_exactly_its_keys(tmp_path, capsys, section,
                                                   kind, values, other):
    cfg = experiments.load_config(_write_cfg(
        tmp_path, _kind_cfg(section, kind, values)))
    assert (getattr(cfg, f"{section}_kind"),
            getattr(cfg, f"{section}_params")) == (kind, values)
    keys = experiments._SCHEMA[section][kind][1]
    for key in (k for k, d in keys.items() if d is None):
        text = _kind_cfg(section, kind,
                         {k: v for k, v in values.items() if k != key})
        assert cli_main(["spectrum", "--config", _write_cfg(tmp_path, text),
                         "--out", str(tmp_path / "out")]) == 2
        assert _error(capsys).endswith(repr(key))
    text = _kind_cfg(section, kind, {**values, other: 1.0})
    assert cli_main(["spectrum", "--config", _write_cfg(tmp_path, text),
                     "--out", str(tmp_path / "out")]) == 2
    assert _error(capsys) == (f"unknown config key {other!r} in "
                                     f"[{section}] for kind {kind!r}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, text", [
    ("distance", BASE_CFG),
    ("palpha", BASE_CFG.replace("[run]", _PERTURB.format("0.01"))),
], ids=["distance", "palpha_delta"])
def test_cli_builds_the_operator_once(tmp_path, monkeypatch, command, text):
    # load_config validates the operator; after it the command builds the
    # tensor once, and the convexity check, the perturbation and every
    # form and distance read that one tensor
    calls = []
    make, load = experiments.make_coeffs, cli.load_config
    for mod in (experiments, cli):
        monkeypatch.setattr(mod, "make_coeffs",
                            lambda *a: calls.append(a) or make(*a))

    def load_then_count(path):
        cfg = load(path)
        calls.clear()
        return cfg

    monkeypatch.setattr(cli, "load_config", load_then_count)
    assert cli_main([command, "--config", _write_cfg(tmp_path, text),
                     "--out", str(tmp_path / "out")]) == 0
    assert calls == [("bilaplacian", {})]
    if command == "palpha":
        payload = json.loads((tmp_path / "out" / "palpha.json").read_text())
        assert "perturbed" in payload["0.25"]


def test_cli_seed_flag_checks_only_the_seed(tmp_path, capsys, monkeypatch):
    # load_config checked the config; --seed replaces the seed alone, so
    # after load_config the command builds the domain and the tensor once
    calls = []
    load = cli.load_config
    for name in ("make_domain", "make_coeffs"):
        make = getattr(experiments, name)
        for mod in (experiments, cli):
            monkeypatch.setattr(mod, name, lambda *a, make=make, name=name:
                                calls.append(name) or make(*a))

    def load_then_count(path):
        cfg = load(path)
        calls.clear()
        return cfg

    monkeypatch.setattr(cli, "load_config", load_then_count)
    out = tmp_path / "out"
    assert cli_main(["spectrum", "--config", _write_cfg(tmp_path),
                     "--out", str(out), "--seed", "7"]) == 0
    assert sorted(calls) == ["make_coeffs", "make_domain"]
    assert cli_main(["spectrum", "--config", _write_cfg(tmp_path),
                     "--out", str(tmp_path / "neg"), "--seed", "-1"]) == 2
    assert _error(capsys) == "seed=-1 must be >= 0"
    assert not (tmp_path / "neg").exists()
