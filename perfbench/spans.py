"""In-memory span tracer for the traced run, and the per-layer figures.

The tracer wraps platelab's public functions from the outside: one span per
call (name, start, end, parent), plus counters taken at the same boundaries.
Nothing under ``src/`` knows about it.  Spans stay in memory and are written
out when the run ends.
"""
from __future__ import annotations

import collections
import functools
import importlib
import inspect
import sys
import time

HOOK_SPAN = "trace.hooks"


class Tracer:
    """Records spans as ``[name, start, end, parent index or -1]``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = collections.Counter()
        self.absent = []
        self._stack = []

    def _open(self, name):
        rec = [name, self.clock(), None, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = self.clock()
        self._stack.pop()

    def wrap(self, name, fn, hook=None):
        """Span around ``fn``; ``hook(tracer, result, fn, args, kwargs)``
        runs afterwards in its own span, so its cost is not charged to the
        caller's self time, and returns the value handed back."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counters[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                self._close(rec)
            if hook is not None:
                h = self._open(HOOK_SPAN)
                try:
                    result = hook(self, result, fn, args, kwargs)
                finally:
                    self._close(h)
            return result

        return traced

    def count(self, name, fn):
        """Count calls without a span (for inner loops whose time belongs
        to the caller's self time)."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counters[name] += 1
            return fn(*args, **kwargs)

        return counted


class LUProxy:
    """Stands in for a SuperLU object and counts shift-invert solves."""

    def __init__(self, lu, counters):
        self._lu = lu
        self._counters = counters

    def solve(self, *args, **kwargs):
        self._counters["spectral.solves"] += 1
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _lu_hook(tracer, lu, fn, args, kwargs):
    nnz = int(lu.L.nnz + lu.U.nnz)
    tracer.counters["spectral.lu_nnz"] += nnz
    tracer.counters["spectral.lu_nnz_max"] = max(
        tracer.counters["spectral.lu_nnz_max"], nnz)
    return LUProxy(lu, tracer.counters)


def _dofs_hook(tracer, result, fn, args, kwargs):
    tracer.counters["geometry.dofs"] = max(tracer.counters["geometry.dofs"],
                                           int(result[1].count))
    return result


def _nnz_hook(tracer, form, fn, args, kwargs):
    tracer.counters["assembly.nnz_out"] += int(form.matrix.nnz)
    return form


def _nodes_hook(tracer, dist, fn, args, kwargs):
    tracer.counters["finsler.nodes"] += int((dist.d > 0.0).sum())
    return dist


def _weak_hook(tracer, report, fn, args, kwargs):
    """A weak pair is capped when its last shift did not stabilize."""
    if report.weak_pair is None or len(report.weak_sweep) < 2:
        return report
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    tol = bound.arguments.get("stability_tol", 0.02)
    (_, c_lo), (_, c_hi) = report.weak_sweep[-2:]
    tracer.counters["verifier.weak_pairs"] += 1
    if abs(c_lo - c_hi) > tol * abs(c_hi):
        tracer.counters["verifier.weak_capped"] += 1
    return report


# (module, attribute, span name, hook).  The scipy entries are wrapped on
# ``scipy.sparse.linalg`` because platelab looks them up there at call time.
TARGETS = (
    ("platelab.geometry", "build_grid", "geometry.build_grid", _dofs_hook),
    ("platelab.geometry", "build_cutoff", "geometry.build_cutoff", None),
    ("platelab.finsler", "finsler_distance", "finsler.finsler_distance",
     _nodes_hook),
    ("platelab.finsler", "eikonal_residual", "finsler.eikonal_residual", None),
    ("platelab.finsler", "euclidean_from_sdf", "finsler.euclidean_from_sdf",
     None),
    ("platelab.assembly", "assemble_Q0", "assembly.assemble_Q0", _nnz_hook),
    ("platelab.assembly", "assemble_Q", "assembly.assemble_Q", _nnz_hook),
    ("platelab.assembly", "assemble_weighted", "assembly.assemble_weighted",
     _nnz_hook),
    ("platelab.assembly", "principal_submatrix",
     "assembly.principal_submatrix", None),
    ("platelab.assembly", "ellipticity_window", "assembly.ellipticity_window",
     None),
    ("platelab.assembly", "interior_difference_ops",
     "assembly.interior_difference_ops", None),
    ("platelab.spectral", "lowest_eigenpairs", "spectral.lowest_eigenpairs",
     None),
    ("scipy.sparse.linalg", "splu", "spectral.splu", _lu_hook),
    ("scipy.sparse.linalg", "eigsh", "spectral.eigsh", None),
    ("platelab.verifier", "estimate_hardy_constant",
     "verifier.estimate_hardy_constant", _weak_hook),
    ("platelab.verifier", "verify_decay", "verifier.verify_decay", None),
    ("platelab.verifier", "make_witnesses", "verifier.make_witnesses", None),
    ("platelab.verifier", "probe_P_alpha", "verifier.probe_P_alpha", None),
    ("platelab.verifier", "measure_cross_term_constant",
     "verifier.measure_cross_term_constant", None),
    ("platelab.verifier", "probe_perturbation", "verifier.probe_perturbation",
     None),
    ("platelab.experiments", "run_erosion_study",
     "experiments.run_erosion_study", None),
    ("platelab.experiments", "load_config", "experiments.load_config", None),
)
# (module, attribute, counter): call counts only, no span.
COUNTED = (("platelab.finsler", "_sweep_once", "finsler.sweeps"),)
CLI_COMMANDS = ("spectrum", "distance", "hardy", "decay", "palpha", "erode")


def _rebind(old, new):
    """Point every platelab binding of ``old`` at ``new``: module attributes,
    names taken with ``from ... import``, and module-level dict values such
    as the CLI's command table."""
    for name, mod in list(sys.modules.items()):
        if name != "platelab" and not name.startswith("platelab."):
            continue
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is old:
                        value[k] = new


def install(tracer):
    """Wrap every target that exists; record the ones that do not."""
    importlib.import_module("platelab.cli")
    for modname, attr, name, hook in TARGETS:
        mod = importlib.import_module(modname)
        fn = getattr(mod, attr, None)
        if fn is None:
            tracer.absent.append(name)
            continue
        wrapped = tracer.wrap(name, fn, hook)
        setattr(mod, attr, wrapped)
        _rebind(fn, wrapped)
    for modname, attr, name in COUNTED:
        mod = importlib.import_module(modname)
        fn = getattr(mod, attr, None)
        if fn is None:
            tracer.absent.append(name)
            continue
        counted = tracer.count(name, fn)
        setattr(mod, attr, counted)
        _rebind(fn, counted)
    commands = getattr(sys.modules["platelab.cli"], "_COMMANDS", None)
    if commands is None:
        tracer.absent.append("cli._COMMANDS")
        return
    for command, fn in list(commands.items()):
        wrapped = tracer.wrap(f"cli.{command}", fn)
        _rebind(fn, wrapped)


def self_times(spans):
    """Per span name: total duration minus the time its direct children
    cover.  Children of one span never overlap (one thread)."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = collections.defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        out[name] += (end - start) - covered[i]
    return dict(out)


def _children_named(spans, parent_name, child_name):
    """Per span called ``parent_name``: how many direct children are named
    ``child_name``."""
    counts = {i: 0 for i, s in enumerate(spans) if s[0] == parent_name}
    for name, _, _, parent in spans:
        if name == child_name and parent in counts:
            counts[parent] += 1
    return list(counts.values())


# name -> (unit, better); the order is the order printed.
PER_LAYER = {}
for _name in ("geometry.build_grid", "assembly.assemble_Q0",
              "assembly.assemble_Q", "assembly.assemble_weighted",
              "spectral.lowest_eigenpairs", "spectral.splu", "spectral.eigsh",
              "finsler.finsler_distance"):
    PER_LAYER[_name + ".s"] = ("s", "lower")
    PER_LAYER[_name + ".calls"] = ("count", "lower")
for _name in ("geometry.build_cutoff", "finsler.eikonal_residual",
              "finsler.euclidean_from_sdf", "assembly.principal_submatrix",
              "assembly.ellipticity_window", "assembly.interior_difference_ops",
              "verifier.estimate_hardy_constant", "verifier.verify_decay",
              "verifier.make_witnesses", "verifier.probe_P_alpha",
              "verifier.measure_cross_term_constant",
              "verifier.probe_perturbation", "experiments.run_erosion_study",
              "experiments.load_config",
              *(f"cli.{c}" for c in CLI_COMMANDS)):
    PER_LAYER[_name + ".s"] = ("s", "lower")
PER_LAYER.update({
    "geometry.dofs": ("count", "lower"),
    "finsler.finsler_distance.nodes_per_s": ("1/s", "higher"),
    "finsler.sweeps": ("count", "lower"),
    "assembly.nnz_out": ("count", "lower"),
    "spectral.lu_nnz": ("count", "lower"),
    "spectral.lu_nnz_max": ("count", "lower"),
    "spectral.lu_bytes": ("B", "lower"),
    "spectral.solves": ("count", "lower"),
    "spectral.solves_per_eigsh": ("ratio", "lower"),
    "spectral.no_convergence": ("count", "lower"),
    "verifier.weak_shifts_tried": ("count", "lower"),
    "verifier.weak_capped_frac": ("ratio", "lower"),
    "verifier.decay_blowup_frac": ("ratio", "lower"),
    "cli.bytes_written": ("B", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.hooks.s": ("s", "lower"),
    "trace.absent": ("count", "lower"),
})

# Bytes per LU nonzero: one float64 value plus one int32 index, computed
# from the factor sizes (cache traffic is not measured).
LU_BYTES_PER_NNZ = 12


def layer_metrics(spans, counters, absent=()):
    """The per-layer figures of one traced run, except those the runner adds
    (``trace.overhead_s``, ``verifier.decay_blowup_frac``,
    ``cli.bytes_written``)."""
    selfs = self_times(spans)
    calls = collections.Counter(s[0] for s in spans)
    inclusive = collections.defaultdict(float)
    for name, start, end, _ in spans:
        inclusive[name] += end - start
    out = {}
    for key in PER_LAYER:
        if key.endswith(".s"):
            out[key] = selfs.get(key[:-2], 0.0)
        elif key.endswith(".calls"):
            out[key] = calls.get(key[:-6], 0)
    fd = inclusive.get("finsler.finsler_distance", 0.0)
    eigsh_calls = calls.get("spectral.eigsh", 0)
    weak_pairs = counters.get("verifier.weak_pairs", 0)
    tried = _children_named(spans, "verifier.estimate_hardy_constant",
                            "spectral.splu")
    out.update({
        "geometry.dofs": counters.get("geometry.dofs", 0),
        "finsler.finsler_distance.nodes_per_s":
            counters.get("finsler.nodes", 0) / fd if fd > 0 else 0.0,
        "finsler.sweeps": counters.get("finsler.sweeps", 0),
        "assembly.nnz_out": counters.get("assembly.nnz_out", 0),
        "spectral.lu_nnz": counters.get("spectral.lu_nnz", 0),
        "spectral.lu_nnz_max": counters.get("spectral.lu_nnz_max", 0),
        "spectral.lu_bytes":
            LU_BYTES_PER_NNZ * counters.get("spectral.lu_nnz", 0),
        "spectral.solves": counters.get("spectral.solves", 0),
        "spectral.solves_per_eigsh":
            counters.get("spectral.solves", 0) / eigsh_calls
            if eigsh_calls else 0.0,
        "spectral.no_convergence": counters.get(
            "spectral.lowest_eigenpairs.raised.NoConvergence", 0),
        # the first factorization in each Hardy call is the unshifted one
        "verifier.weak_shifts_tried": sum(max(n - 1, 0) for n in tried),
        "verifier.weak_capped_frac":
            counters.get("verifier.weak_capped", 0) / weak_pairs
            if weak_pairs else 0.0,
        "trace.absent": len(absent),
    })
    return out
