"""Output checks and accuracy figures for the platelab CLI outputs.

Every check is a property that any correct discretization satisfies, so an
accuracy fix cannot trip one, while a change that breaks the property does.
No check reads a BLOWUP flag or compares a weak constant with its paper
window: those are known defects, reported by the accuracy figures instead.

Each ``check_*`` function takes a command's output directory (plus the
parameters of the config it ran) and returns a list of problems; an empty
list means the output passed.
"""
from __future__ import annotations

import csv
import json
import math
import os

# First clamped-plate eigenvalue of the unit disk: the fourth power of the
# smallest positive root of J0(k) I1(k) + I0(k) J1(k) = 0.
LAMBDA1_DISK = 104.3631055588
# Weak Hardy (1/4) and Rellich (9/16) constants at the boundary.
WEAK_HARDY = 0.25
WEAK_RELLICH = 0.5625
BALL_LAW_LIMIT = 0.03
ORACLE_SHARE = 0.05
REL_SLACK = 1e-9


def _rows(path):
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.DictReader(f))


def _json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def k_alpha_ref(alpha: float) -> float:
    """Closed-form sharp inflation constant 9 / ((1 - 4a^2)(9 - 4a^2))."""
    a2 = alpha * alpha
    return 9.0 / ((1.0 - 4.0 * a2) * (9.0 - 4.0 * a2))


def spectrum_rows(out_dir):
    return _rows(os.path.join(out_dir, "spectrum.csv"))


def check_spectrum(out_dir, tol, disk_radius=None):
    rows = spectrum_rows(out_dir)
    if not rows:
        return ["spectrum.csv has no rows"]
    problems = []
    values = [float(r["value"]) for r in rows]
    for r in rows:
        if not float(r["residual"]) <= tol:
            problems.append(f"eigenpair {r['index']}: residual "
                            f"{r['residual']} > tol {tol}")
    if any(b < a for a, b in zip(values, values[1:])):
        problems.append(f"eigenvalues not ascending: {values}")
    if disk_radius is not None:
        oracle = LAMBDA1_DISK / disk_radius**4
        if not abs(values[0] - oracle) <= ORACLE_SHARE * oracle:
            problems.append(f"lambda1 {values[0]} not within "
                            f"{ORACLE_SHARE:.0%} of {oracle}")
    return problems


def check_stability(out_dir, tol):
    """Min-max bound drift >= -2 (res + res~) lambda on every row.

    res comes from spectrum.csv when the same run wrote one (the erosion
    study solves the same pencil with the same seed); the eroded residual
    res~ is not written, so its certified ceiling tol stands in for it.
    """
    rows = _rows(os.path.join(out_dir, "stability.csv"))
    if not rows:
        return ["stability.csv has no rows"]
    res = {}
    if os.path.exists(os.path.join(out_dir, "spectrum.csv")):
        res = {int(r["index"]) + 1: float(r["residual"])
               for r in spectrum_rows(out_dir)}
    problems = []
    for r in rows:
        n, lam, drift = int(r["n"]), float(r["lambda"]), float(r["drift"])
        floor = -2.0 * (res.get(n, tol) + tol) * lam
        if not drift >= floor:
            problems.append(f"n={n} eps={r['eps']}: drift {drift} < {floor}")
        ball = float(r["ball_law_error"])
        if not math.isnan(ball) and not ball <= BALL_LAW_LIMIT:
            problems.append(f"n={n} eps={r['eps']}: ball_law_error "
                            f"{ball} > {BALL_LAW_LIMIT}")
    return problems


def check_distance(out_dir):
    """Disk with the bilaplacian: the Finsler distance is the Euclidean one."""
    stats = _json(os.path.join(out_dir, "distance.json"))
    problems = []
    for key in ("c1_hat", "c2_hat"):
        if stats.get(key) is None or not abs(stats[key] - 1.0) <= REL_SLACK:
            problems.append(f"{key} = {stats.get(key)}, expected 1")
    frac = stats.get("frac_within_5h")
    if frac is None or not frac >= 0.95:
        problems.append(f"frac_within_5h = {frac} < 0.95")
    return problems


def _margins(report):
    return [report["margin"], *report.get("per_witness_margin", ())]


def check_palpha(out_dir, perturbed):
    payload = _json(os.path.join(out_dir, "palpha.json"))
    if not payload:
        return ["palpha.json has no alpha entries"]
    problems = []
    for key, entry in payload.items():
        base = entry["base"]
        want = 1.05 * k_alpha_ref(base["alpha"])
        if not abs(base["k_used"] - want) <= REL_SLACK * want:
            problems.append(f"alpha {key}: k_used {base['k_used']} != {want}")
        if min(_margins(base)) < 0.0:
            problems.append(f"alpha {key}: negative base margin")
        if not perturbed:
            continue
        pert = entry.get("perturbed", {})
        if "error" in pert or "k_used" not in pert:
            problems.append(f"alpha {key}: perturbed probe missing: {pert}")
            continue
        if min(_margins(pert)) < 0.0:
            problems.append(f"alpha {key}: negative perturbed margin")
        if not pert["k_used"] > base["k_used"]:
            problems.append(f"alpha {key}: perturbed k_used {pert['k_used']}"
                            f" <= base {base['k_used']}")
    return problems


def check_hardy(out_dir):
    payload = _json(os.path.join(out_dir, "hardy.json"))
    if not payload:
        return ["hardy.json has no pencils"]
    problems = []
    for kind, rep in payload.items():
        plain = {int(n): c for n, c in rep["n_sweep"]}
        consts = [plain[n] for n in sorted(plain)]
        if not consts or min(consts) <= 0.0:
            problems.append(f"{kind}: plain constants not positive: {consts}")
        if any(b > a * (1.0 + REL_SLACK) for a, b in zip(consts, consts[1:])):
            problems.append(f"{kind}: plain constants increase in n: {consts}")
        for n, c in rep.get("weak_sweep", ()):
            if int(n) in plain and c < plain[int(n)] * (1.0 - REL_SLACK):
                problems.append(f"{kind}: weak {c} < plain {plain[int(n)]} "
                                f"at n={n}")
    return problems


def decay_rows(out_dir):
    return _rows(os.path.join(out_dir, "decay.csv"))


def check_decay(out_dir, alphas):
    rows = decay_rows(out_dir)
    by_alpha = {}
    problems = []
    for r in rows:
        by_alpha.setdefault(float(r["alpha"]), []).append(
            (int(r["n_reg"]), float(r["lhs"])))
    if sorted(by_alpha) != sorted(alphas):
        problems.append(f"decay alphas {sorted(by_alpha)} != {sorted(alphas)}")
    n_sets = {tuple(sorted(n for n, _ in v)) for v in by_alpha.values()}
    if len(n_sets) != 1 or any(len(set(ns)) != len(ns) for ns in n_sets):
        problems.append(f"decay rows are not one per (alpha, n): {n_sets}")
    for a, pairs in by_alpha.items():
        lhs = [v for _, v in sorted(pairs)]
        if any(b < a_ * (1.0 - REL_SLACK) for a_, b in zip(lhs, lhs[1:])):
            problems.append(f"alpha {a}: lhs decreases in n: {lhs}")
    return problems


# Accuracy figures: lower is better; each reads one output file.

def lambda1_rel_err(out_dir, disk_radius=1.0):
    oracle = LAMBDA1_DISK / disk_radius**4
    return abs(float(spectrum_rows(out_dir)[0]["value"]) - oracle) / oracle


def decay_blowup_frac(out_dir):
    flagged = {}
    for r in decay_rows(out_dir):
        a = float(r["alpha"])
        if 0.0 < a < 0.5:
            flagged[a] = flagged.get(a, False) or r["flag"] == "BLOWUP"
    return sum(flagged.values()) / len(flagged) if flagged else 0.0


def hardy_weak_gap(out_dir):
    payload = _json(os.path.join(out_dir, "hardy.json"))
    weak_a = payload["hardy_grad"]["weak_pair"][0]
    weak_b = payload["rellich_mass"]["weak_pair"][0]
    return max(abs(weak_a / WEAK_HARDY - 1.0), abs(weak_b / WEAK_RELLICH - 1.0))


def distance_err_max_h(out_dir, h, disk_radius=1.0):
    """max |d - (R - r)| / h over distance.csv for a disk of radius R."""
    worst = 0.0
    for r in _rows(os.path.join(out_dir, "distance.csv")):
        exact = disk_radius - math.hypot(float(r["x"]), float(r["y"]))
        worst = max(worst, abs(float(r["d_finsler"]) - exact))
    return worst / h


def check_command(command, out_dir, cp):
    """Problems with the outputs ``command`` wrote for config ``cp``."""
    tol = cp.getfloat("spectral", "tol", fallback=1e-8)
    # the oracles below hold for the clamped bilaplacian on a disk
    disk = (cp.get("domain", "kind") == "disk"
            and cp.get("operator", "kind", fallback="bilaplacian")
            == "bilaplacian")
    radius = cp.getfloat("domain", "radius") if disk else None
    if command == "spectrum":
        return check_spectrum(out_dir, tol, radius)
    if command == "erode":
        return check_stability(out_dir, tol)
    if command == "distance":
        return check_distance(out_dir) if disk else []
    if command == "palpha":
        return check_palpha(out_dir, cp.getfloat("perturbation", "delta",
                                                 fallback=0.0) > 0.0)
    if command == "hardy":
        return check_hardy(out_dir)
    if command == "decay":
        alphas = [float(a) for a in cp.get("sweeps", "alphas").split()]
        return check_decay(out_dir, alphas)
    raise ValueError(f"no output check for command {command!r}")
