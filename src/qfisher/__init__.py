"""q-entropies, generalized (beta, q)-Fisher information, q-Gaussian
distributions, a doubly nonlinear diffusion solver, and numerical checks of
the identities and inequalities tying them together.  `import qfisher` loads
only the standard library; a public name such as `qfisher.evolve` loads its
module (`qfisher.diffusion`), and numpy with it, on first use."""

import importlib

__version__ = "0.1.0"

#: module -> the public names it defines
_PUBLIC = {
    "core": "Axis GridDensity NonFiniteError Tolerances density_from_callable gradient "
            "integrate normalize sphere_surface",
    "diffusion": "DiffusionState StabilityError TrajectoryLog debruijn_check evolve "
                 "phi_monotonicity_check",
    "estimation": "EstimatorSpec MODEL_REGISTRY ParametricModel SingularScoreError "
                  "crm_bound_general crm_bound_quadratic crm_bound_scalar escort_pair_model "
                  "fisher_matrix_g gaussian_location_model mc_error_moment qcr_product "
                  "qgaussian_location_model sample_mean_estimator score_g",
    "inequalities": "min_fisher_fixed_entropy min_fisher_fixed_moment stam_product stam_ratio",
    "info_measures": "EscortDivergenceError entropy_power escort escort_inverse i_fisher m_q "
                     "phi_fisher phi_fisher_refined renyi_entropy shannon_entropy "
                     "tsallis_entropy",
    "perturb": "fourier_bump perturbed_density",
    "qgaussian": "DiffusionParams QGaussianParams barenblatt barenblatt_density "
                 "barenblatt_equivalent_qgaussian barenblatt_mass barenblatt_mass_constant "
                 "closed_form_entropy_power closed_form_i_fisher closed_form_m_q "
                 "closed_form_phi_fisher closed_form_stam_product gamma_for_entropy_power "
                 "gamma_for_moment grid_density moment_alpha normalization pdf sample "
                 "support_radius tail_radius",
    "reports": "VerificationReport",
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names.split()}


def __getattr__(name):
    """A public name, read from its module at each access (PEP 562)."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
