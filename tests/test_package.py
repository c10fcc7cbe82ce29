"""The package namespace: ``platelab.<name>`` loads its submodule on first
use, and every exported name is read by the package or a demo."""
import ast
import dataclasses
import importlib
import inspect
from collections.abc import Mapping
from pathlib import Path

import pytest

import platelab as pl

EXPORTED = [
    "AlphaOutOfRange", "AnalyticDomain", "BandUnresolved", "BoundViolated",
    "CoefficientField", "ConfigError", "DecayReport", "DistanceField",
    "EllipticityLost", "FormMatrix", "Grid", "GridMask", "GridTooCoarse",
    "HardyReport", "MassNotPD", "NegativeQuartic", "NoConvergence",
    "NotElliptic", "PAlphaReport", "PlatelabError", "RunConfig", "Spectrum",
    "StabilityReport", "StabilityRow", "assemble_Q", "assemble_Q0",
    "assemble_weighted", "bilaplacian", "build_cutoff", "build_grid",
    "cross_term_bound", "cutoff_rayleigh_bound", "default_n_sweep",
    "diagonal", "disk", "dual_metric", "eikonal_residual",
    "ellipticity_window", "equivalence_constants",
    "estimate_hardy_constant", "euclidean_from_sdf", "finsler_distance",
    "fit_drift_exponent", "gamma_alpha", "interior_difference_ops",
    "k_alpha_ref", "load_config", "lowest_eigenpairs", "make_coeffs",
    "make_domain", "make_witnesses", "measure_cross_term_constant",
    "perturb_coeffs", "probe_P_alpha",
    "probe_perturbation", "product", "rectangle", "run_erosion_study",
    "smoothstep", "superellipse", "validate_config", "verify_decay",
]


def test_all_lists_the_exported_names():
    assert len(EXPORTED) == 62
    assert pl.__all__ == EXPORTED
    assert set(EXPORTED) <= set(dir(pl))
    assert pl.__version__ == "0.1.0"


@pytest.mark.parametrize("name", EXPORTED)
def test_name_resolves_to_its_submodule_object(name):
    value = getattr(pl, name)
    module = importlib.import_module(value.__module__)
    assert module.__name__.startswith("platelab.")
    assert getattr(module, name) is value


def test_submodules_resolve_as_attributes():
    for name in ("errors", "geometry", "finsler", "assembly", "spectral",
                 "verifier", "experiments"):
        assert getattr(pl, name) is importlib.import_module(f"platelab.{name}")
        assert name in dir(pl)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pl.no_such_name
    assert not hasattr(pl, "no_such_name")


def _names_read(path):
    """Every name and attribute read in one source file; a ``def`` or
    ``class`` statement is not a read of the name it defines."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def test_every_public_name_has_a_caller():
    # an export that neither the package nor a demo reads is API that
    # nothing uses
    src = Path(pl.__file__).resolve().parent
    files = [p for p in sorted(src.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((Path(__file__).resolve().parents[1] / "demos")
                    .glob("*.py"))
    read = set().union(*(_names_read(p) for p in files))
    assert [n for n in pl.__all__ if n not in read] == []


def test_no_public_function_takes_what_it_can_derive(disk32):
    # a DistanceField holds its grid and mask, the witnesses their labels
    # and a Spectrum its mass form as B; the decay check reads eigenpair 0
    # and every check builds its own difference operators.  assemble_weighted
    # takes dist=None for the mass and power-0 forms, so it needs the grid
    # and the mask
    paired, handed = [], []
    for name in pl.__all__:
        obj = getattr(pl, name)
        if not inspect.isfunction(obj):
            continue
        params = set(inspect.signature(obj).parameters)
        if (name != "assemble_weighted" and "dist" in params
                and params & {"grid", "mask"}) or {"spec", "mass"} <= params:
            paired.append(name)
        if params & {"ops", "u_index", "labels"}:
            handed.append(name)
    assert paired == [] and handed == []
    assert [f.name for f in dataclasses.fields(pl.DistanceField)] == [
        "grid", "mask", "d"]
    assert isinstance(pl.make_witnesses(disk32.spec, disk32.dist), Mapping)
