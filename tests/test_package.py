"""The package's exports, resolved from their modules at first access."""

import importlib

import pytest

import qsdlab

# every name the package exported when it imported its modules eagerly
EXPORTS = {
    "errors": ("ConfigError", "DomainError", "IntegrabilityError",
               "ModelError", "PreconditionError", "QsdError",
               "SurvivalUnderflowError", "TailDominatedError",
               "TruncationError"),
    "model": ("DriftField", "GrowthModel", "Model", "allee_growth",
              "drift_field", "drift_from_growth", "linear_growth",
              "logistic_growth", "ou_drift", "potential", "preset_model",
              "x_from_z", "z_from_x"),
    "quadrature": ("IntegralVerdict", "classify_growth", "integrate"),
    "hypotheses": ("HypothesisCheck", "HypothesisReport", "check_all",
                   "check_h1", "check_h2", "check_h3", "check_h4",
                   "check_h5", "check_hh", "inv_q_criterion",
                   "report_to_rows"),
    "spectral": ("SpectralDecomposition", "TruncationDomain",
                 "YaglomMeasure", "appendix_bound_sweep", "build_and_solve",
                 "conditional_density", "conditional_law", "default_domain",
                 "eta1_mass_trail", "flux_check", "kernel_r",
                 "l2_bound_check", "qprocess_row", "qprocess_stationary",
                 "rate_report", "survival", "yaglom_measure",
                 "yaglom_to_z"),
    "montecarlo": ("ConditionedGrowth", "EmpiricalLaw", "LambdaEstimate",
                   "PathBatch", "SimConfig", "condition_on_extinction",
                   "conditional_histogram", "estimate_lambda1",
                   "ks_distance", "simulate_qprocess", "simulate_x",
                   "simulate_z", "yaglom_cdf"),
    "birthdeath": ("BDChainSpec", "BDModel", "BDPath", "ScalingReport",
                   "SCriterionReport", "gillespie", "lattice_law",
                   "preset_chain", "preset_family", "s_criterion",
                   "scaling_limit_check"),
    "config": ("RunConfig", "load_config"),
    "report": ("RunReport", "write_csv"),
}


def test_exports_are_their_modules_objects():
    names = [name for names in EXPORTS.values() for name in names]
    assert sorted(qsdlab.__all__) == sorted(names)
    assert len(set(names)) == len(names)
    for module, names in EXPORTS.items():
        mod = importlib.import_module(f"qsdlab.{module}")
        for name in names:
            assert getattr(qsdlab, name) is getattr(mod, name), name
    star = {}
    exec("from qsdlab import *", star)
    assert set(star) - {"__builtins__"} == set(qsdlab.__all__)
    assert qsdlab.__version__ == "0.1.0"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qsdlab.no_such_name
    assert not hasattr(qsdlab, "simulate")
