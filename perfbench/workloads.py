"""The benchmark's workloads: which CLI commands run on which configs.

Each config is a shipped file under ``configs/`` with a few keys replaced;
the benchmark writes it into its run directory.  The workload seed is not
part of any config: it reaches the program only as ``--seed``.

Grid sizes are chosen so that one pass of each workload takes about 7-13 s
on 2 CPUs: two or three passes then fit in one run, and the whole benchmark
schedule stays within its time budget.
"""
from __future__ import annotations

import configparser
import os
from dataclasses import dataclass

import checks

# name -> (shipped config, {section: {key: value}})
CONFIGS = {
    "disk16": ("disk.cfg", {"grid": {"h": repr(1 / 16)},
                            "sweeps": {"eps": "0.25 0.375"}}),
    "rect20": ("rect_aniso.cfg", {"grid": {"h": repr(1 / 20)},
                                  "sweeps": {"eps": "0.25 0.375"},
                                  "perturbation": {"delta": "0.01"}}),
    "disk40": ("disk.cfg", {"grid": {"h": repr(1 / 40)}}),
    "disk_fine": ("disk_fine.cfg", {}),
}


ACCURACY_UNITS = {"distance_err_max_h": "h", "hardy_weak_gap": "ratio",
                  "lambda1_rel_err": "ratio", "decay_blowup_frac": "ratio"}


@dataclass(frozen=True)
class Workload:
    steps: tuple          # ((command, config name), ...), run in order
    accuracy: dict        # figure name -> fn(out dirs, configs); first is oracle_err
    why: str


def _h(cfgs, name):
    return cfgs[name].getfloat("grid", "h")


WORKLOADS = {
    "eikonal": Workload(
        steps=(("distance", "disk16"), ("palpha", "rect20")),
        accuracy={"distance_err_max_h": lambda outs, cfgs: checks.
                  distance_err_max_h(outs["disk16"], _h(cfgs, "disk16"))},
        why="distance on the disk and palpha on rect_aniso: the pure-Python "
            "eikonal sweep dominates, both operator paths, one non-mass eigsh;"
            " no Hardy or decay. oracle_err = distance_err_max_h"),
    "hardy": Workload(
        steps=(("hardy", "disk40"),),
        accuracy={"hardy_weak_gap": lambda outs, cfgs: checks.
                  hardy_weak_gap(outs["disk40"])},
        why="hardy on the disk at h=1/40: many small splu and eigsh calls of "
            "the weak-constant shift scan; no eikonal call. oracle_err = "
            "hardy_weak_gap"),
    "spectra": Workload(
        steps=(("spectrum", "disk_fine"), ("erode", "disk_fine"),
               ("decay", "disk_fine")),
        accuracy={"lambda1_rel_err": lambda outs, cfgs: checks.
                  lambda1_rel_err(outs["disk_fine"]),
                  "decay_blowup_frac": lambda outs, cfgs: checks.
                  decay_blowup_frac(outs["disk_fine"])},
        why="spectrum, erode, decay on disk_fine (h=1/96): a few large "
            "factorizations and verify_decay's weighted assemblies. "
            "oracle_err = lambda1_rel_err"),
}


def write_configs(workload, configs_dir, run_dir):
    """Write the workload's configs into ``run_dir``; return name ->
    (path, parsed config)."""
    out = {}
    for _, name in WORKLOADS[workload].steps:
        if name in out:
            continue
        shipped, overrides = CONFIGS[name]
        cp = configparser.ConfigParser(inline_comment_prefixes=(";",))
        with open(os.path.join(configs_dir, shipped), encoding="utf-8") as f:
            cp.read_file(f)
        for section, values in overrides.items():
            if not cp.has_section(section):
                cp.add_section(section)
            for key, value in values.items():
                cp.set(section, key, value)
        path = os.path.join(run_dir, name + ".cfg")
        with open(path, "w", encoding="utf-8") as f:
            cp.write(f)
        out[name] = (path, cp)
    return out
