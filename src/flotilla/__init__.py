"""Flotation, buoyancy and illumination curves of smooth convex plane bodies."""

from .curve import (
    AffineFrame,
    AffineImage,
    ClosedConvexCurve,
    Ellipse,
    FourierRadial,
    SampledPeriodic,
    area,
    curve_from_json,
)
from .chord import Chords, sweep
from .floatgeom import (
    DerivedCurve,
    buoyancy_point,
    flotation_body_area,
    flotation_point,
    illumination_centroid_point,
    illumination_point,
    kappa_prime_buoyancy,
    kappa_prime_flotation,
    omega_identity_residual,
)
from .homothety import (
    Carousel,
    ConstancyReport,
    HomothetyFit,
    affine_cut_length_report,
    affine_sphere_residual,
    build_carousel,
    chord_cube_report,
    duality_parameters,
    duality_pointwise_check,
    endpoint_balance_residual,
    fit_homothety,
    proper_affine_sphere_residual,
    radon_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
