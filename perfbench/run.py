"""platelab benchmark: drives the ``platelab`` CLI from the outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/`` and
``configs/``).  The load is a closed loop with one client: the workload's
CLI commands run one at a time, each in a fresh interpreter, and the whole
sequence repeats while another pass still fits in ``--seconds``.  Every
output file is checked (``checks.py``); a command that exits nonzero or
fails a check counts as failed.  BLAS keeps its library default thread
count, which is recorded with the environment.

``--trace 0`` prints the end-to-end figures, measured with tracing off.
Times are reported at full host speed: each command's wall and CPU time is
divided by the slowdown that a probe (``calib.py``) measured on the vCPU the
command ran on, while it ran; the raw times are printed beside them.
``--trace 1`` runs the sequence twice inside one interpreter each, untraced
and traced (``inproc.py``, ``spans.py``), and prints the per-layer figures
and the tracing overhead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import calib
import checks
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
INPROC = os.path.join(HERE, "inproc.py")
RUNS_DIR = ".perfbench_runs"
SETUP_REPEATS = 5
# Every child is killed once this many seconds have passed since the start,
# so that the benchmark ends within its 180 s limit.
DEADLINE_S = 165.0
SETUP_CODE = ("import sys, platelab\n"
              "from platelab.experiments import load_config\n"
              "for path in sys.argv[1:]:\n"
              "    load_config(path)\n")

# name -> (unit, better)
END_TO_END = {
    "wall_norm_s": ("s", "lower"),
    "cpu_norm_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "oracle_err": ("ratio", "lower"),
}


def run_child(argv, env, log_path, deadline, probe=None):
    """Run one child to completion; return (exit code, wall s, rusage).

    The child is killed at ``deadline`` (a ``time.monotonic`` value), and
    always reaped.  A ``probe`` follows the child while it runs."""
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=log)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0),
                                proc.kill)
        timer.start()
        if probe is not None:
            probe.follow(proc.pid)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            if probe is not None:
                probe.follow(None)
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def _bytes_under(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def _check(command, out, cp):
    try:
        return checks.check_command(command, out, cp)
    except (OSError, KeyError, ValueError, IndexError, TypeError) as exc:
        return [f"{command}: unreadable output: {exc!r}"]


def _accuracy(workload, outs, cfgs):
    """(figures, problems) for one pass's outputs."""
    figures, problems = {}, []
    for name, fn in workloads.WORKLOADS[workload].accuracy.items():
        try:
            figures[name] = float(fn(outs, cfgs))
        except (OSError, KeyError, ValueError, IndexError, TypeError) as exc:
            problems.append(f"{name}: {exc!r}")
    return figures, problems


class Run:
    """One benchmark invocation: its run directory, configs and tallies."""

    def __init__(self, root, run_dir, workload, seed):
        self.workload = workload
        self.seed = seed
        self.dir = run_dir
        self.log = os.path.join(self.dir, "children.log")
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.deadline = time.monotonic() + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.problems = []
        os.makedirs(self.dir)
        self.configs = workloads.write_configs(
            workload, os.path.join(root, "configs"), self.dir)
        self.parsed = {name: cp for name, (_, cp) in self.configs.items()}

    def record(self, command, code, out, cp):
        """Count one CLI call; it fails on a nonzero exit or a failed check."""
        self.attempted += 1
        problems = (_check(command, out, cp) if code == 0
                    else [f"{command}: exit code {code}"])
        if problems:
            self.failed += 1
            self.problems.append(problems)

    def setup_s(self, probe):
        """Set-up time: median over ``SETUP_REPEATS`` fresh interpreters that
        import platelab and load the workload's configs, after one untimed
        warm-up.  Returns (at full host speed, as measured)."""
        argv = [sys.executable, "-c", SETUP_CODE,
                *(path for path, _ in self.configs.values())]
        norms, walls = [], []
        for i in range(SETUP_REPEATS + 1):
            begin = time.perf_counter()
            code, wall, _ = run_child(argv, self.env, self.log, self.deadline,
                                      probe)
            if code != 0:
                raise RuntimeError(f"setup interpreter exited {code}")
            if i:
                walls.append(wall)
                norms.append(wall / probe.slowdown(begin, begin + wall))
        return statistics.median(norms), statistics.median(walls)

    def one_pass(self, index, probe):
        """One run of the CLI sequence.  Each command's wall and CPU time is
        also divided by the host slowdown the probe saw while it ran."""
        pas = dict.fromkeys(("wall_s", "cpu_s", "wall_norm_s", "cpu_norm_s",
                             "peak_rss_mb"), 0.0)
        outs = {}
        for command, name in workloads.WORKLOADS[self.workload].steps:
            path, cp = self.configs[name]
            out = outs.setdefault(name, os.path.join(self.dir, f"pass{index}", name))
            os.makedirs(out, exist_ok=True)
            begin = time.perf_counter()
            code, wall, usage = run_child(
                [sys.executable, "-m", "platelab.cli", command, "--config",
                 path, "--out", out, "--seed", str(self.seed)],
                self.env, self.log, self.deadline, probe)
            cpu = usage.ru_utime + usage.ru_stime
            slow = probe.slowdown(begin, begin + wall)
            pas["wall_s"] += wall
            pas["cpu_s"] += cpu
            pas["wall_norm_s"] += wall / slow
            pas["cpu_norm_s"] += cpu / slow
            pas["peak_rss_mb"] = max(pas["peak_rss_mb"],
                                     usage.ru_maxrss / 1024.0)   # KiB on Linux
            self.record(command, code, out, cp)
        pas["slowdown"] = pas["wall_s"] / pas["wall_norm_s"]
        figures, problems = _accuracy(self.workload, outs, self.parsed)
        if problems:
            self.problems.append(problems)
        return {**pas, **figures}

    def closed_loop(self, seconds, probe):
        """Passes while another one fits in ``seconds`` (at least one)."""
        passes = []
        start = time.perf_counter()
        while not passes or (time.perf_counter() - start
                             + passes[-1]["wall_s"] <= seconds):
            passes.append(self.one_pass(len(passes), probe))
        return passes

    def in_process(self, trace):
        """One in-process pass (``inproc.py``); returns its result dict."""
        tag = f"inproc{trace}"
        plan = workloads.WORKLOADS[self.workload].steps
        steps = [[command, self.configs[name][0],
                  os.path.join(self.dir, tag, name)] for command, name in plan]
        steps_path = os.path.join(self.dir, tag + "_steps.json")
        result_path = os.path.join(self.dir, tag + "_result.json")
        with open(steps_path, "w", encoding="utf-8") as f:
            json.dump(steps, f)
        code, _, _ = run_child([sys.executable, INPROC, steps_path,
                                result_path, str(self.seed), str(trace)],
                               self.env, self.log, self.deadline)
        if code != 0:
            raise RuntimeError(f"in-process run exited {code}")
        with open(result_path, encoding="utf-8") as f:
            result = json.load(f)
        for (command, name), (_, _, out), code in zip(plan, steps,
                                                      result["codes"]):
            self.record(command, code, out, self.parsed[name])
        result["out_dir"] = os.path.join(self.dir, tag)
        return result


def _steal_s():
    """CPU time the hypervisor took from this machine since boot (all CPUs);
    a run with much of it was disturbed from outside."""
    try:
        with open("/proc/stat", encoding="utf-8") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def end_to_end(run, seconds):
    steal = _steal_s()
    probe = calib.Probe().start()
    try:
        setup, setup_wall = run.setup_s(probe)
        passes = run.closed_loop(seconds, probe)
    finally:
        probe.stop()
    steal = _steal_s() - steal
    med = {k: statistics.median(p[k] for p in passes)
           for k in passes[0] if all(k in p for p in passes)}
    oracle = next(iter(workloads.WORKLOADS[run.workload].accuracy))
    figures = {"wall_norm_s": med["wall_norm_s"],
               "cpu_norm_s": med["cpu_norm_s"], "setup_s": setup,
               "peak_rss_mb": med["peak_rss_mb"], "oracle_err": med.get(oracle)}
    # printed beside the end-to-end table, outside the result line
    named = {"wall_s": (med["wall_s"], "s"), "cpu_s": (med["cpu_s"], "s"),
             "setup_wall_s": (setup_wall, "s"),
             "slowdown": (med["slowdown"], "ratio"),
             "failed_frac": (run.failed / max(run.attempted, 1), "ratio")}
    named.update({k: (med[k], workloads.ACCURACY_UNITS[k])
                  for k in workloads.WORKLOADS[run.workload].accuracy
                  if k in med})
    notes = {"pass_wall_s": [p["wall_s"] for p in passes],
             "pass_slowdown": [p["slowdown"] for p in passes],
             "probe_calls": len(probe.samples["python"]), "steal_s": steal}
    return figures, named, notes


def per_layer(run):
    untraced = run.in_process(0)
    traced = run.in_process(1)
    figures = spans.layer_metrics(traced["spans"], traced["counters"],
                                  traced["absent"])
    figures["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    figures["cli.bytes_written"] = _bytes_under(traced["out_dir"])
    outs = {name: os.path.join(traced["out_dir"], name) for name in run.configs}
    acc, problems = _accuracy(run.workload, outs, run.parsed)
    if problems:
        run.problems.append(problems)
    # 0 on workloads that run no decay
    figures["verifier.decay_blowup_frac"] = acc.get("decay_blowup_frac", 0.0)
    notes = {"traced_wall_s": traced["wall_s"],
             "untraced_wall_s": untraced["wall_s"],
             "spans": len(traced["spans"]), "absent": traced["absent"]}
    return figures, {}, notes


def _openblas_threads():
    """Thread count each loaded OpenBLAS reports (its default unless the
    environment set one)."""
    import ctypes
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                found[os.path.basename(lib)] = int(fn())
                break
    return found


def _git_commit(root):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(root, workload, seed):
    import numpy
    import scipy
    import scipy.sparse.linalg  # noqa: F401  (loads scipy's BLAS)
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), model)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "workload": workload,
        "seed": seed,
        "git_commit": _git_commit(root),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    needed = [os.path.join(root, "src", "platelab", "cli.py"),
              *(os.path.join(root, "configs", shipped)
                for shipped, _ in workloads.CONFIGS.values())]
    missing = sorted({p for p in needed if not os.path.isfile(p)})
    if missing:
        sys.stderr.write(f"not a platelab checkout; missing {missing}\n")
        return 2

    run_dir = os.path.join(root, RUNS_DIR,
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        run = Run(root, run_dir, args.workload, args.seed)
        print("environment " + json.dumps(environment(root, args.workload,
                                                      args.seed)), flush=True)
        if args.trace:
            figures, named, notes = per_layer(run)
            units = {k: u for k, (u, _) in spans.PER_LAYER.items()}
        else:
            figures, named, notes = end_to_end(run, args.seconds)
            units = {k: u for k, (u, _) in END_TO_END.items()}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, RUNS_DIR))
        except OSError:
            pass
    for problems in run.problems:
        print("FAILED: " + "; ".join(problems))
    print("notes " + json.dumps(notes))
    rows = [(name, figures.get(name), units[name]) for name in units]
    for name, value, unit in rows + [(k, v, u) for k, (v, u) in named.items()]:
        print(f"{args.workload:8s} {name:44s} {value!s:>24} {unit}")
    metrics = {name: {"value": figures[name], "unit": units[name]}
               for name in units if figures.get(name) is not None
               and math.isfinite(figures[name])}
    print(json.dumps({"correct": not run.problems and len(metrics) == len(units),
                      "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
