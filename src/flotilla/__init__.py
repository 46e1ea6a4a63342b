"""Flotation, buoyancy and illumination curves of smooth convex plane bodies."""

from .curve import (
    AffineFrame,
    AffineImage,
    ClosedConvexCurve,
    Ellipse,
    FourierRadial,
    LinearElement,
    SampledPeriodic,
    affine_arclength,
    affine_curvature,
    affine_distance,
    affine_normal,
    apply_affine,
    area,
    curve_from_json,
    curve_to_json,
    euclidean_curvature,
    evaluate,
)
from .chord import (
    Chords,
    cap_area,
    cone_area,
    solve_flotation_chord,
    solve_silhouette_chord,
    sweep,
    tangent_intersection,
)
from .floatgeom import (
    DerivedCurve,
    buoyancy_affine_normal_check,
    buoyancy_point,
    flotation_body_area,
    flotation_point,
    kappa_prime_buoyancy,
    kappa_prime_flotation,
    omega_identity_residual,
)
from .illumgeom import (
    PolarityResult,
    illumination_centroid_point,
    illumination_point,
    polar_of_point,
    pole_of_chord,
)
from .homothety import (
    Carousel,
    ConstancyReport,
    HomothetyFit,
    affine_cut_length_report,
    build_carousel,
    chord_cube_report,
    duality_parameters,
    duality_pointwise_check,
    endpoint_balance_residual,
    fit_homothety,
    hausdorff_distance,
    intersection_body_polar,
    petty_condition_report,
    proper_affine_sphere_residual,
    radon_check,
    solve_carousel_delta,
    carousel_diagnostics,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
