import ast
import json
import os
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
    inner = pl.erode(outer, 0.6)
    grid, mask = pl.build_grid(inner, 1.0 / 32)
    dist = pl.euclidean_from_sdf(outer, grid, mask)
    Q0 = assembly.assemble_Q0(grid, mask)
    mass = assembly.assemble_weighted(grid, mask, None, "mass", 0.0, 1)
    spec = pl.lowest_eigenpairs(Q0, mass, m=3)
    cutoff = pl.build_cutoff(grid, dist, 0.15)
    bounds = experiments.cutoff_rayleigh_bound(spec, cutoff, Q0, mass, mask)
    assert np.allclose(bounds, spec.values, rtol=1e-10)


def test_eroded_hessian_bound_disk_closed_form():
    # |hess r| = 1/r in the (1,1,2) norm, so on the unit disk the sup over
    # the band eps + 2h < d < 2 eps tends to 1/(1 - 2 eps)
    dom = pl.disk(1.0)
    for h in (1.0 / 48, 1.0 / 64, 1.0 / 96):
        grid, mask = pl.build_grid(dom, h)
        for eps in (0.1, 0.2):
            got = experiments.measure_eroded_hessian_bound(dom, grid, mask,
                                                           eps)
            assert got == pytest.approx(1.0 / (1.0 - 2.0 * eps), rel=5e-3)


def test_erosion_study_rows_and_ball_law(disk32):
    report = experiments.run_erosion_study(
        disk32.domain, pl.bilaplacian(), disk32.h, 2, [0.125, 0.25],
        grid=disk32.grid, mask=disk32.mask, Q=disk32.Q0, mass=disk32.mass)
    assert len(report.rows) == 4
    for r in report.rows:
        assert r.drift > 0
        assert r.lam_tilde <= r.rayleigh_upper * (1 + 1e-10)
        assert np.isfinite(r.ball_law_error)
    assert set(report.fitted_exponent) == {1, 2}


def test_erosion_study_rejects_thin_eps(disk32):
    with pytest.raises(ConfigError):
        experiments.run_erosion_study(
            disk32.domain, pl.bilaplacian(), disk32.h, 1, [2.0 * disk32.h],
            grid=disk32.grid, mask=disk32.mask, Q=disk32.Q0, mass=disk32.mass)


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


def _file_writes(path):
    """(module, name) of every call to ``open`` or ``dump`` (json.dump), in
    any spelling, in one source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            f = node.func
            name = getattr(f, "attr", getattr(f, "id", None))
            if name in ("open", "dump"):
                found.append((path.stem, name))
    return found


def test_only_cli_writes_files():
    # the library returns data; the CLI alone knows the output formats
    src = Path(cli.__file__).resolve().parent
    found = {u for p in sorted(src.glob("*.py")) for u in _file_writes(p)}
    assert found == {("cli", "open"), ("cli", "dump")}


def test_cli_import_leaves_scipy_optimize_out():
    # its import costs more than the ellipticity window it could polish
    probe = "import sys, platelab.cli; print('scipy.optimize' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1]),
         os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_cli_spectrum_success(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    code = cli_main(["spectrum", "--config", cfg, "--out", str(out)])
    assert code == 0
    lines = (out / "spectrum.csv").read_text().strip().split("\n")
    assert lines[0] == "index,value,residual"
    assert len(lines) == 4


def test_cli_distance_bilaplacian_solves_once(tmp_path, monkeypatch):
    # p* = |xi| for the bilaplacian, so the Finsler solve is the Euclidean one
    dom = pl.disk(1.0)
    grid, mask = pl.build_grid(dom, 0.0625)
    df = pl.finsler_distance(dom, grid, mask, pl.bilaplacian())
    calls = []
    sweep = finsler._sweep_once
    monkeypatch.setattr(finsler, "_sweep_once",
                        lambda *a: calls.append(1) or sweep(*a))
    pl.finsler_distance(dom, grid, mask, pl.bilaplacian())
    one_solve = len(calls)
    out = tmp_path / "out"
    assert cli_main(["distance", "--config", _write_cfg(tmp_path),
                     "--out", str(out)]) == 0
    assert len(calls) == 2 * one_solve
    stats = json.loads((out / "distance.json").read_text())
    assert (stats["c1_hat"], stats["c2_hat"]) == (1.0, 1.0)
    rows = np.loadtxt(out / "distance.csv", delimiter=",", skiprows=1)
    assert np.array_equal(rows[:, 2], rows[:, 3])
    assert np.array_equal(rows[:, 2], df.interior_values(mask))


def test_cli_distance_anisotropic_euclidean_column(tmp_path):
    # rect_aniso at h = 1/16: the Euclidean column is the bilaplacian solve
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
    de = pl.finsler_distance(dom, grid, mask, pl.bilaplacian())
    rows = np.loadtxt(out / "distance.csv", delimiter=",", skiprows=1)
    assert np.array_equal(rows[:, 2], df.interior_values(mask))
    assert np.array_equal(rows[:, 3], de.interior_values(mask))
    stats = json.loads((out / "distance.json").read_text())
    assert (stats["c1_hat"], stats["c2_hat"]) == \
        pl.equivalence_constants(df, de, mask)
    assert stats["c1_hat"] < stats["c2_hat"]


def test_cli_config_error_exit_2(tmp_path, capsys):
    code = cli_main(["spectrum", "--config", str(tmp_path / "missing.cfg")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "missing.cfg" in err["message"]


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
    payload = json.loads((out / "stability.json").read_text())
    assert "fitted_exponent" in payload and "hess_deps_bound" in payload
    lines = (out / "stability.csv").read_text().strip().split("\n")
    assert lines[0] == \
        "n,eps,lambda,lambda_tilde,drift,rayleigh_upper,ball_law_error"
    assert len(lines) == 2


def test_cli_palpha_rejects_blowup_alphas(tmp_path, capsys):
    # --allow-blowup belongs to decay; palpha has no blow-up demonstration
    cfg = _write_cfg(tmp_path, BASE_CFG.replace("alphas = 0.25",
                                                "alphas = 0.6"))
    out = tmp_path / "out"
    for extra in ([], ["--allow-blowup"]):
        code = cli_main(["palpha", "--config", cfg, "--out", str(out)]
                        + extra)
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "0.6" in err["message"]
    assert not (out / "palpha.json").exists()


def test_cli_m_not_below_dof_count_exit_2(tmp_path, capsys):
    # the h = 1/16 disk has 793 unknowns
    cfg = _write_cfg(tmp_path, BASE_CFG.replace("m = 3", "m = 5000"))
    for command in ("spectrum", "decay", "erode"):
        code = cli_main([command, "--config", cfg,
                         "--out", str(tmp_path / "out")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "793" in err["message"]


def test_cli_erode_m_not_below_eroded_dof_count_exit_2(tmp_path, capsys,
                                                       monkeypatch):
    # eroding the h = 1/16 disk by eps = 0.25 leaves 437 of 793 unknowns;
    # the eroded grids are checked before any eigensolve
    calls = []
    for mod in (cli, experiments, spectral):
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
    calls = []
    window = assembly.ellipticity_window
    monkeypatch.setattr(assembly, "ellipticity_window",
                        lambda *a, **k: calls.append(1) or window(*a, **k))
    text = BASE_CFG.replace("alphas = 0.25", "alphas = 0.1 0.25") \
        + "\n[perturbation]\ndelta = 0.01\n"
    out = tmp_path / "out"
    assert cli_main(["palpha", "--config", _write_cfg(tmp_path, text),
                     "--out", str(out)]) == 0
    assert len(calls) == 1
    payload = json.loads((out / "palpha.json").read_text())
    assert sorted(payload) == ["0.1", "0.25"]
    assert all("perturbed" in entry for entry in payload.values())


def test_cli_palpha_non_elliptic_perturbation_exit_2(tmp_path, capsys,
                                                    monkeypatch):
    # at seed 42 the delta = 2.5 perturbation of the bilaplacian loses
    # ellipticity (at seed 1 it does not); it is checked before any eigensolve
    calls = []
    for mod in (cli, spectral):
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


def test_cli_decay_builds_difference_ops_once(tmp_path, monkeypatch):
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
    assert len(calls) == 1
    lines = (out / "decay.csv").read_text().strip().split("\n")
    assert {float(line.split(",")[0]) for line in lines[1:]} == {0.1, 0.25,
                                                                 0.4}


def test_cli_hardy_non_bilaplacian_exit_2(tmp_path, capsys, monkeypatch):
    # hardy's pencils use Q0 and the Euclidean distance whatever the
    # operator, so another operator is refused before any eigensolve
    calls = []
    for mod in (cli, verifier, spectral):
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
