"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench -q

``fixtures/`` holds real CLI outputs of ``platelab <command> --seed 1``:
``spectrum``, ``erode`` and ``decay`` on ``configs/disk_fine.cfg``,
``distance`` on the disk at h=1/16 (``distance.csv`` cut to its first 60
rows), ``palpha`` on ``rect_aniso`` at h=1/24 and ``hardy`` on the disk at
h=1/32.  Each output check must pass on them and fail on a
copy corrupted in one place.
"""
from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys

import pytest

import calib
import checks
import run
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIXTURES = os.path.join(HERE, "fixtures")
TOL = 1e-8
ALPHAS = [0.1, 0.25, 0.4]


@pytest.fixture
def out(tmp_path):
    shutil.copytree(FIXTURES, tmp_path / "out")
    return str(tmp_path / "out")


def _edit_csv(path, edit):
    with open(path, encoding="utf-8", newline="") as f:
        rows = list(csv.DictReader(f))
        fields = list(rows[0])
    rows = edit(rows)
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.DictWriter(f, fields, lineterminator="\n")
        w.writeheader()
        w.writerows(rows)


def _edit_json(path, edit):
    with open(path, encoding="utf-8") as f:
        payload = json.load(f)
    edit(payload)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f)


def _set(rows, i, key, value):
    rows[i][key] = repr(value)
    return rows


def test_real_outputs_pass(out):
    assert checks.check_spectrum(out, TOL, 1.0) == []
    assert checks.check_stability(out, TOL) == []
    assert checks.check_distance(out) == []
    assert checks.check_palpha(out, perturbed=True) == []
    assert checks.check_hardy(out) == []
    assert checks.check_decay(out, ALPHAS) == []


@pytest.mark.parametrize("edit", [
    lambda r: _set(r, 1, "residual", 10 * TOL),
    lambda r: _set(_set(r, 0, "value", 500.0), 1, "value", 400.0),
    lambda r: _set(r, 0, "value", 0.94 * checks.LAMBDA1_DISK),
], ids=["residual_above_tol", "descending", "lambda1_off_oracle"])
def test_spectrum_check_catches(out, edit):
    _edit_csv(os.path.join(out, "spectrum.csv"), edit)
    assert checks.check_spectrum(out, TOL, 1.0)


@pytest.mark.parametrize("edit", [
    lambda r: _set(r, 2, "drift", -1e-5 * float(r[2]["lambda"])),
    lambda r: _set(r, 0, "ball_law_error", 0.031),
], ids=["drift_below_minmax_floor", "ball_law_error"])
def test_stability_check_catches(out, edit):
    _edit_csv(os.path.join(out, "stability.csv"), edit)
    assert checks.check_stability(out, TOL)


@pytest.mark.parametrize("key,value", [
    ("c1_hat", 0.99), ("c2_hat", 1.01), ("frac_within_5h", 0.94)])
def test_distance_check_catches(out, key, value):
    _edit_json(os.path.join(out, "distance.json"),
               lambda p: p.__setitem__(key, value))
    assert checks.check_distance(out)


def _palpha(edit):
    def apply(p):
        edit(next(iter(p.values())))
    return apply


@pytest.mark.parametrize("edit", [
    lambda e: e["base"].__setitem__("margin", -1e-3),
    lambda e: e["base"]["per_witness_margin"].__setitem__(2, -1.0),
    lambda e: e["perturbed"].__setitem__("margin", -1e-3),
    lambda e: e["base"].__setitem__("k_used", e["base"]["k_used"] * 1.01),
    lambda e: e["perturbed"].__setitem__("k_used", e["base"]["k_used"]),
    lambda e: e.__setitem__("perturbed", {"error": "BoundViolated"}),
], ids=["negative_margin", "negative_witness_margin",
        "negative_perturbed_margin", "k_used", "perturbed_not_inflated",
        "perturbed_missing"])
def test_palpha_check_catches(out, edit):
    _edit_json(os.path.join(out, "palpha.json"), _palpha(edit))
    assert checks.check_palpha(out, perturbed=True)


def _swap_plain(p):
    sweep = p["rellich_mass"]["n_sweep"]
    sweep[0][1], sweep[1][1] = sweep[1][1], sweep[0][1]


def _negative_plain(p):
    p["hardy_grad"]["n_sweep"][-1][1] = -0.1


def _weak_below_plain(p):
    rep = p["rellich_grad"]
    n_hi = rep["weak_sweep"][-1][0]
    plain = dict(rep["n_sweep"])[n_hi]
    rep["weak_sweep"][-1][1] = 0.5 * plain


@pytest.mark.parametrize("edit", [_swap_plain, _negative_plain,
                                  _weak_below_plain])
def test_hardy_check_catches(out, edit):
    _edit_json(os.path.join(out, "hardy.json"), edit)
    assert checks.check_hardy(out)


@pytest.mark.parametrize("edit", [
    lambda r: r[:-1],
    lambda r: r + [dict(r[0])],
    lambda r: _set(r, 3, "lhs", 0.5 * float(r[2]["lhs"])),
], ids=["missing_row", "duplicate_row", "lhs_decreasing"])
def test_decay_check_catches(out, edit):
    _edit_csv(os.path.join(out, "decay.csv"), edit)
    assert checks.check_decay(out, ALPHAS)


def test_decay_check_catches_missing_alpha(out):
    assert checks.check_decay(out, ALPHAS + [0.3])


def test_accuracy_figures(out):
    lam = float(checks.spectrum_rows(out)[0]["value"])
    assert checks.lambda1_rel_err(out) == pytest.approx(
        abs(lam - checks.LAMBDA1_DISK) / checks.LAMBDA1_DISK)
    assert checks.decay_blowup_frac(out) == 1.0
    with open(os.path.join(out, "hardy.json"), encoding="utf-8") as f:
        hardy = json.load(f)
    weak_a = hardy["hardy_grad"]["weak_pair"][0]
    weak_b = hardy["rellich_mass"]["weak_pair"][0]
    assert checks.hardy_weak_gap(out) == max(abs(weak_a / 0.25 - 1),
                                             abs(weak_b / 0.5625 - 1))
    _edit_csv(os.path.join(out, "decay.csv"),
              lambda r: [dict(x, flag="STABLE") if float(x["alpha"]) < 0.3
                         else x for x in r])
    assert checks.decay_blowup_frac(out) == pytest.approx(1 / 3)


def test_distance_error_against_exact_disk(tmp_path):
    with open(tmp_path / "distance.csv", "w", encoding="utf-8") as f:
        f.write("x,y,d_finsler,d_euclid,residual\n"
                "0.6,0.0,0.4,0.4,0\n"           # exact
                "0.0,0.8,0.23,0.23,0\n"         # off by 0.03
                "0.3,0.4,0.49,0.49,0\n")        # off by 0.01
    assert checks.distance_err_max_h(str(tmp_path), h=0.01) == \
        pytest.approx(3.0)


# A hand-built span tree:  a [0, 10] -> b [1, 4] -> c [2, 3]
#                                   -> b [5, 9]
#                            d [11, 12] (root)
TREE = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0], ["d", 11.0, 12.0, -1]]


def test_self_times_subtract_direct_children_only():
    assert spans.self_times(TREE) == {"a": 3.0, "b": 6.0, "c": 1.0, "d": 1.0}


def test_tracer_records_nesting_and_raises():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)

    def fail():
        raise ValueError("boom")

    outer = tracer.wrap("outer", lambda: inner(1) + inner(2))
    failing = tracer.wrap("failing", fail)
    assert outer() == 5
    with pytest.raises(ValueError):
        failing()
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("outer", -1), ("inner", 0), ("inner", 0),
                     ("failing", -1)]
    assert spans.self_times(tracer.spans)["outer"] == 5.0 - 2.0
    assert tracer.counters["failing.raised.ValueError"] == 1


def test_layer_metrics_counts_weak_shifts_and_solves():
    tree = [["verifier.estimate_hardy_constant", 0.0, 10.0, -1],
            *[["spectral.splu", 1.0 + i, 1.5 + i, 0] for i in range(4)],
            ["spectral.eigsh", 6.0, 8.0, 0],
            ["spectral.eigsh", 8.0, 9.0, 0],
            ["verifier.estimate_hardy_constant", 10.0, 12.0, -1],
            ["spectral.splu", 10.5, 11.0, 7]]
    counters = {"spectral.solves": 30, "verifier.weak_pairs": 2,
                "verifier.weak_capped": 1, "spectral.lu_nnz": 100}
    m = spans.layer_metrics(tree, counters, absent=["x"])
    assert m["verifier.weak_shifts_tried"] == 3
    assert m["verifier.weak_capped_frac"] == 0.5
    assert m["spectral.solves_per_eigsh"] == 15.0
    assert m["spectral.splu.s"] == 2.5 and m["spectral.splu.calls"] == 5
    assert m["verifier.estimate_hardy_constant.s"] == \
        pytest.approx(10.0 - 2.0 - 3.0 + 2.0 - 0.5)
    assert m["spectral.lu_bytes"] == 1200
    assert m["finsler.finsler_distance.calls"] == 0
    assert m["trace.absent"] == 1


INSTALL_PROBE = r"""
import json, sys
import numpy as np
import platelab.assembly, platelab.cli as cli, platelab.verifier as verifier
import scipy.sparse.linalg as spla
import spans
del platelab.assembly.interior_difference_ops
tracer = spans.Tracer()
spans.install(tracer)
from platelab import build_grid, disk, assemble_Q0, assemble_weighted
from platelab.spectral import lowest_eigenpairs
grid, mask = build_grid(disk(1.0), 1 / 8)
lowest_eigenpairs(assemble_Q0(grid, mask),
                  assemble_weighted(grid, mask, None, "mass", 0.0, 1), m=2)
print(json.dumps({
    "absent": tracer.absent,
    "names": sorted({s[0] for s in tracer.spans}),
    "counters": dict(tracer.counters),
    "cli_load_config": hasattr(cli.load_config, "__wrapped__"),
    "verifier_binding": hasattr(verifier.assemble_weighted, "__wrapped__"),
    "command_table": all(hasattr(f, "__wrapped__")
                         for f in cli._COMMANDS.values()),
    "splu": hasattr(spla.splu, "__wrapped__"),
}))
"""


def test_install_wraps_every_binding_and_records_absent_names():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), HERE]))
    done = subprocess.run([sys.executable, "-c", INSTALL_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout.strip().splitlines()[-1])
    assert got["absent"] == ["assembly.interior_difference_ops"]
    assert {"geometry.build_grid", "assembly.assemble_Q0",
            "spectral.lowest_eigenpairs", "spectral.splu",
            "spectral.eigsh"} <= set(got["names"])
    assert got["counters"]["spectral.solves"] > 0
    assert got["counters"]["spectral.lu_nnz"] > 0
    assert got["counters"]["geometry.dofs"] > 0
    assert got["cli_load_config"] and got["verifier_binding"]
    assert got["command_table"] and got["splu"]


def test_written_configs_load_in_platelab(tmp_path):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from platelab.experiments import load_config
        for name in workloads.WORKLOADS:
            for path, cp in workloads.write_configs(
                    name, os.path.join(ROOT, "configs"), str(tmp_path)).values():
                cfg = load_config(path)
                assert cfg.h == cp.getfloat("grid", "h")
    finally:
        sys.path.remove(os.path.join(ROOT, "src"))


def test_probe_slowdown_is_geometric_mean_of_kernel_ratios():
    probe = calib.Probe()
    ref = calib.REF_KERNEL_S
    # python kernel twice as slow as its reference in [0, 1), sparse 1.5x;
    # both at full speed in [1, 2); nothing sampled in [5, 6)
    probe.samples = {
        "python": [(0.1, 2 * ref["python"]), (0.6, 2 * ref["python"]),
                   (1.5, ref["python"])],
        "sparse": [(0.1, 1.5 * ref["sparse"]), (0.6, 1.5 * ref["sparse"]),
                   (1.5, ref["sparse"])]}
    assert probe.slowdown(0.0, 1.0) == pytest.approx(3 ** 0.5)
    assert probe.slowdown(1.0, 2.0) == pytest.approx(1.0)
    whole = ((5 / 3) * (4 / 3)) ** 0.5
    assert probe.slowdown(5.0, 6.0) == pytest.approx(whole)
    assert probe.slowdown() == pytest.approx(whole)


def test_probe_times_kernels_in_a_thread():
    probe = calib.Probe(interval=0.0).start()
    try:
        while len(probe.samples["sparse"]) < 3:
            probe._stop.wait(0.01)
    finally:
        probe.stop()
    assert all(s > 0 for name in calib.KERNELS for _, s in probe.samples[name])
    assert probe.slowdown() > 0


def test_running_cpus_of_a_live_and_a_finished_process():
    assert set(calib._running_cpus(os.getpid())) <= os.sched_getaffinity(0)
    assert calib._running_cpus(os.getpid())
    done = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                          capture_output=True, text=True, check=True)
    assert calib._running_cpus(int(done.stdout)) == []


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    for w in bench["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} \
        == spans.PER_LAYER
