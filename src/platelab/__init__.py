"""platelab: numerical verification of fourth-order Dirichlet operators.

Clamped-plate spectra, operator-induced boundary distances, Hardy-Rellich
constants, weighted boundary-decay integrals, form-inequality probes and
eigenvalue drift under boundary erosion, all on uniform 2D grids.
"""
from .errors import (AlphaOutOfRange, BandUnresolved, BoundViolated,
                     ConfigError, EllipticityLost, EmptyErosion,
                     GridTooCoarse, MassNotPD, NegativeQuartic,
                     NoConvergence, NotElliptic, PlatelabError)
from .geometry import (AnalyticDomain, Grid, GridMask, build_cutoff,
                       build_grid, disk, erode, rectangle, smoothstep,
                       superellipse)
from .finsler import (CoefficientField, DistanceField, bilaplacian, diagonal,
                      dual_metric, eikonal_residual, equivalence_constants,
                      euclidean_from_sdf, finsler_distance, product)
from .assembly import (EllipticityWindow, FormMatrix, assemble_Q,
                       assemble_Q0, assemble_weighted, ellipticity_window,
                       interior_difference_ops, perturb_coeffs,
                       principal_submatrix)
from .spectral import Spectrum, lowest_eigenpairs
from .verifier import (DecayReport, HardyReport, PAlphaReport,
                       cross_term_bound, default_n_sweep,
                       estimate_hardy_constant, gamma_alpha, k_alpha_ref,
                       make_witnesses, measure_cross_term_constant,
                       probe_P_alpha, probe_perturbation, verify_decay)
from .experiments import (RunConfig, StabilityReport, StabilityRow,
                          cutoff_rayleigh_bound, fit_drift_exponent,
                          load_config, make_coeffs, make_domain,
                          run_erosion_study, validate_config)

__version__ = "0.1.0"
