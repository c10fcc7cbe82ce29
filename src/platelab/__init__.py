"""platelab: numerical verification of fourth-order Dirichlet operators.

Clamped-plate spectra, operator-induced boundary distances, Hardy-Rellich
constants, weighted boundary-decay integrals, form-inequality probes and
eigenvalue drift under boundary erosion, all on uniform 2D grids.

``platelab.<name>`` imports the submodule that defines the name on first
use, so ``import platelab`` loads no scipy until a name needs it.
"""
import importlib

_SUBMODULE = {
    **dict.fromkeys((
        "AlphaOutOfRange", "BandUnresolved", "BoundViolated", "ConfigError",
        "EllipticityLost", "GridTooCoarse", "MassNotPD",
        "NegativeQuartic", "NoConvergence", "NotElliptic", "PlatelabError"),
        "errors"),
    **dict.fromkeys((
        "AnalyticDomain", "Grid", "GridMask", "build_cutoff", "build_grid",
        "disk", "rectangle", "smoothstep", "superellipse"),
        "geometry"),
    **dict.fromkeys((
        "CoefficientField", "DistanceField", "bilaplacian", "diagonal",
        "dual_metric", "eikonal_residual", "equivalence_constants",
        "euclidean_from_sdf", "finsler_distance", "product"), "finsler"),
    **dict.fromkeys((
        "FormMatrix", "assemble_Q", "assemble_Q0", "assemble_weighted",
        "ellipticity_window", "interior_difference_ops", "perturb_coeffs"),
        "assembly"),
    **dict.fromkeys(("Spectrum", "lowest_eigenpairs"), "spectral"),
    **dict.fromkeys((
        "DecayReport", "HardyReport", "PAlphaReport", "cross_term_bound",
        "estimate_hardy_constant", "gamma_alpha", "k_alpha_ref",
        "make_witnesses", "measure_cross_term_constant", "probe_P_alpha",
        "probe_perturbation", "verify_decay"), "verifier"),
    **dict.fromkeys((
        "RunConfig", "StabilityReport", "StabilityRow",
        "cutoff_rayleigh_bound", "default_n_sweep", "fit_drift_exponent",
        "load_config", "make_coeffs", "make_domain", "run_erosion_study",
        "validate_config"), "experiments"),
}

__all__ = sorted(_SUBMODULE)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULE.values():  # platelab.spectral and the like
        return importlib.import_module(f".{name}", __name__)
    if name not in _SUBMODULE:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_SUBMODULE[name]}", __name__)
    return getattr(module, name)


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULE.values()})
