"""The package namespace: ``platelab.<name>`` loads its submodule on first
use and exports the same names as before the loading became lazy."""
import importlib

import pytest

import platelab as pl

EXPORTED = [
    "AlphaOutOfRange", "AnalyticDomain", "BandUnresolved", "BoundViolated",
    "CoefficientField", "ConfigError", "DecayReport", "DistanceField",
    "EllipticityLost", "EllipticityWindow", "EmptyErosion", "FormMatrix",
    "Grid", "GridMask", "GridTooCoarse", "HardyReport", "MassNotPD",
    "NegativeQuartic", "NoConvergence", "NotElliptic", "PAlphaReport",
    "PlatelabError", "RunConfig", "Spectrum", "StabilityReport",
    "StabilityRow", "assemble_Q", "assemble_Q0", "assemble_weighted",
    "bilaplacian", "build_cutoff", "build_grid", "cross_term_bound",
    "cutoff_rayleigh_bound", "default_n_sweep", "diagonal", "disk",
    "dual_metric", "eikonal_residual", "ellipticity_window",
    "equivalence_constants", "erode", "estimate_hardy_constant",
    "euclidean_from_sdf", "finsler_distance", "fit_drift_exponent",
    "gamma_alpha", "interior_difference_ops", "k_alpha_ref", "load_config",
    "lowest_eigenpairs", "make_coeffs", "make_domain", "make_witnesses",
    "measure_cross_term_constant", "perturb_coeffs", "principal_submatrix",
    "probe_P_alpha", "probe_perturbation", "product", "rectangle",
    "run_erosion_study", "smoothstep", "superellipse", "validate_config",
    "verify_decay",
]


def test_all_lists_the_exported_names():
    assert len(EXPORTED) == 66
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
