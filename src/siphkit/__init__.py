"""siphkit: scaling-invariant and positively homogeneous function toolkit.

Construct scalar fields (built-in gallery, arithmetic expressions, or your
own callables), test scaling invariance and decomposability on seeded
samples, build the canonical decomposition f = phi o p by ray root-finding,
and certify the geometric and differential consequences: level-set radii,
ball sandwich bounds, sublevel compactness, measure negligibility, Euler
identities, and positive-gradient neighborhoods.
"""

from .decomposition import (Decomposition, DecompositionError,
                            build_decomposition, order_equivalence,
                            uniqueness_check, verify_decomposition)
from .euler import (EulerReport, NeighborhoodCertificate, PairedLevels,
                    euler_residual, general_euler_residual,
                    levelset_gradient_constancy, paired_level_solver,
                    positive_gradient_region, saddle_levels)
from .exprlang import ExprBindError, ExprError, ExprSyntaxError, bind, eval_ast
from .exprlang import to_source
from .field import (DimensionMismatchError, FieldMeta, GradientSpec,
                    RaySection, ScalarField, ray_section)
from .gallery import REGISTRY, compose, make_builtin, random_si, registry_json
from .levelsets import (BoundsReport, CompactnessReport, NegligibilityReport,
                        SphereExtrema, check_ph_sandwich,
                        check_si_sandwich, compactness_probe,
                        fold_projected_samples, negligibility_probe,
                        ray_level_radius, sphere_extrema)
from .rays import (DecomposabilityReport, SamplingPlan, SIReport,
                   check_decomposability, check_scaling_invariance,
                   classify_ray, default_directions, order_trichotomy)
from .reporting import Report, emit, jsonable
from .rootfind import RootResult, golden_section, solve_monotone

__version__ = "0.1.0"

__all__ = [
    "BoundsReport", "CompactnessReport", "Decomposition", "DecompositionError",
    "DecomposabilityReport", "DimensionMismatchError", "EulerReport",
    "ExprBindError", "ExprError", "ExprSyntaxError", "FieldMeta",
    "GradientSpec", "NegligibilityReport",
    "NeighborhoodCertificate", "PairedLevels", "RaySection", "REGISTRY",
    "Report", "RootResult", "SIReport", "SamplingPlan", "ScalarField",
    "SphereExtrema", "bind", "build_decomposition", "check_decomposability",
    "check_ph_sandwich", "check_scaling_invariance", "check_si_sandwich",
    "classify_ray", "compactness_probe", "compose", "default_directions",
    "emit", "euler_residual", "eval_ast", "fold_projected_samples",
    "general_euler_residual", "golden_section", "jsonable",
    "levelset_gradient_constancy",
    "make_builtin", "negligibility_probe", "order_equivalence",
    "order_trichotomy", "paired_level_solver", "positive_gradient_region",
    "random_si", "ray_level_radius",
    "ray_section", "registry_json", "saddle_levels", "solve_monotone",
    "sphere_extrema", "to_source", "uniqueness_check", "verify_decomposition",
    "__version__",
]
