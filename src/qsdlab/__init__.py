"""Numerical laboratory for quasi-stationary behavior of absorbed diffusions.

The package studies one-dimensional diffusions killed at the origin:
integrability hypotheses, the spectral decomposition of the killed
generator, quasi-stationary (Yaglom) profiles, survival asymptotics and
convergence rates, the never-absorbed conditioned process, Monte Carlo
cross-validation, and the birth-death lattice prelimits.
"""

from .errors import (ConfigError, DomainError, IntegrabilityError,
                     ModelError, PreconditionError, QsdError,
                     SurvivalUnderflowError, TailDominatedError,
                     TruncationError)
from .model import (DriftField, GrowthModel, Model, allee_growth,
                    drift_field, drift_from_growth, linear_growth,
                    logistic_growth, ou_drift, potential, preset_model,
                    x_from_z, z_from_x)
from .quadrature import IntegralVerdict, classify_growth, integrate
from .hypotheses import (HypothesisCheck, HypothesisReport, check_all,
                         check_h1, check_h2, check_h3, check_h4, check_h5,
                         check_hh, inv_q_criterion, report_to_rows)
from .spectral import (SpectralDecomposition, TruncationDomain,
                       YaglomMeasure, appendix_bound_sweep, build_and_solve,
                       conditional_density, conditional_law,
                       default_domain, eta1_mass_trail, flux_check,
                       kernel_r, l2_bound_check, qprocess_row,
                       qprocess_stationary, rate_report, survival,
                       yaglom_measure, yaglom_to_z)
from .montecarlo import (ConditionedGrowth, EmpiricalLaw, LambdaEstimate,
                         PathBatch, SimConfig, condition_on_extinction,
                         conditional_histogram, estimate_lambda1,
                         ks_distance, simulate_qprocess, simulate_x,
                         simulate_z, yaglom_cdf)
from .birthdeath import (BDChainSpec, BDModel, BDPath, ScalingReport,
                         SCriterionReport, gillespie, lattice_law,
                         preset_chain, preset_family, s_criterion,
                         scaling_limit_check)
from .config import RunConfig, load_config
from .report import RunReport, write_csv

__version__ = "0.1.0"
