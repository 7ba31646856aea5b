"""Star bodies, section functions, and the equatorial derivative transform.

The package builds star bodies in R^n (2 <= n <= 6) from radial
functions, evaluates their conical and hyperplane section functions, and
differentiates those section curves at the equator height z = 0.  The
slope is an explicit integro-differential transform A(xi) of the radial
data; A kills even fields and acts diagonally on odd spherical
harmonics with nonzero multipliers, so sweeping A over poles detects
central asymmetry.  A verify registry machine-checks every identity the
construction relies on, and a Monte Carlo oracle cross-checks section
values without sharing any quadrature code.
"""

from .sphere_geom import (
    DIM_MAX,
    DIM_MIN,
    FRAME_SEED,
    EquatorFrame,
    EquatorQuadrature,
    default_resolution,
    embed,
    equator_rule,
    fibonacci_sphere,
    geodesic_distance,
    make_frame,
    probe_directions,
    random_directions,
    random_rotation,
    sphere_rule,
    unit_vector,
    vol_sphere,
)
from .star_body import (
    RadialField,
    ScalarField,
    body_ball,
    body_ellipsoid,
    body_harmonic_perturbed_ball,
    body_shifted_ball,
    equator_derivative,
    hyperplane_profile_field,
    odd_part,
    rotate_body,
    scale_body,
    strip_gradient,
    to_scalar_field,
)
from .slice_transforms import (
    DerivativeAtZero,
    SectionCurve,
    conical_section,
    derivative_at_zero,
    equator_transform,
    hyperplane_section,
    richardson_limit,
    section_curve,
    slice_integral,
    transform_sweep,
)
from .harmonics import (
    LMAX,
    MultiplierTable,
    estimate_multiplier,
    fourier_check_n2,
    fourier_field,
    funk_hecke_multiplier,
    harmonic_field,
    multiplier_table,
    real_harmonic,
    zonal_field,
)
from .symmetry_detector import (
    AsymmetryReport,
    calibrate,
    detect,
    sample_poles,
    sweep,
)
from .oracle import SlabEstimate, mc_cone_section, mc_hyperplane_section
from .verify import CheckResult, check_names, run_checks

__version__ = "0.1.0"

__all__ = [
    "DIM_MAX", "DIM_MIN", "FRAME_SEED", "EquatorFrame", "EquatorQuadrature",
    "default_resolution", "embed", "equator_rule", "fibonacci_sphere",
    "geodesic_distance", "make_frame", "probe_directions", "random_directions",
    "random_rotation", "sphere_rule", "unit_vector", "vol_sphere",
    "RadialField", "ScalarField", "body_ball", "body_ellipsoid",
    "body_harmonic_perturbed_ball", "body_shifted_ball", "equator_derivative",
    "hyperplane_profile_field", "odd_part", "rotate_body", "scale_body",
    "strip_gradient", "to_scalar_field",
    "DerivativeAtZero", "SectionCurve", "conical_section",
    "derivative_at_zero", "equator_transform", "hyperplane_section",
    "richardson_limit", "section_curve", "slice_integral", "transform_sweep",
    "LMAX", "MultiplierTable", "estimate_multiplier", "fourier_check_n2",
    "fourier_field", "funk_hecke_multiplier", "harmonic_field", "multiplier_table",
    "real_harmonic", "zonal_field",
    "AsymmetryReport", "calibrate", "detect", "sample_poles", "sweep",
    "SlabEstimate", "mc_cone_section", "mc_hyperplane_section",
    "CheckResult", "check_names", "run_checks",
    "__version__",
]
