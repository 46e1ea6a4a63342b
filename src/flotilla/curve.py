"""Smooth closed convex plane curves and their Euclidean/affine invariants.

All curve kinds share the parameter interval [0, PERIOD), PERIOD = 2*pi, and
expose exact (or spectrally accurate) derivatives up to fourth order. Points
and vectors are plain numpy arrays of shape (2,); vectorized calls with an
array of parameter values return (N, 2).
"""

import functools
import math
import sys

import numpy as np

from .errors import DomainError
from .numerics import PERIOD, PeriodicAntiderivative, TrigInterpolant, bracketed_newton

_MIN_CONVEXITY_SAMPLES = 512

# j quarter turns, the phase shift of the j-th derivative of cos and sin, for j = 0..4
_QUARTER_TURNS = np.array([j * math.pi / 2.0 for j in range(5)])


def det2(u, v):
    """Planar cross product u_x v_y - u_y v_x, broadcasting over leading axes."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def dot2(u, v):
    """Planar dot product u_x v_x + u_y v_y, broadcasting over leading axes."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1]


def norm2(u):
    u = np.asarray(u, dtype=float)
    return np.sqrt(u[..., 0] ** 2 + u[..., 1] ** 2)


class AffineFrame:
    """Affine map x -> matrix @ x + translation."""

    def __init__(self, matrix, translation=(0.0, 0.0)):
        self.matrix = np.asarray(matrix, dtype=float).reshape(2, 2)
        self.translation = np.asarray(translation, dtype=float).reshape(2)

    @property
    def determinant(self):
        return float(np.linalg.det(self.matrix))

    def apply(self, points):
        points = np.asarray(points, dtype=float)
        return points @ self.matrix.T + self.translation

    def apply_vector(self, vectors):
        return np.asarray(vectors, dtype=float) @ self.matrix.T


class ClosedConvexCurve:
    """Base for periodic, positively oriented, strongly convex parametrizations."""

    # whether the representation gives the body to rounding: every analytic kind does
    resolved = True

    @property
    def resolution(self):
        return 128

    def derivatives(self, s, orders):
        """Parameter derivatives of orders 0..4 at s, one array per order; each kind shares its work across them."""
        raise NotImplementedError

    def derivative(self, s, order):
        """The one-order case of ``derivatives``."""
        return self.derivatives(s, (order,))[0]

    def convexity(self, s):
        """det(gamma'(s), gamma''(s)), positive everywhere on a strongly convex, positively oriented curve."""
        return det2(*self.derivatives(s, (1, 2)))

    def on_grid(self, n, orders):
        """``derivatives`` at the n-point grid s_j = j PERIOD / n, which a sampled kind serves by an inverse FFT."""
        return self.derivatives(np.arange(n) * (PERIOD / n), orders)

    @functools.cached_property
    def moments(self):
        """Moment origin o and the interpolant of [w, (gamma - o) w], w = det(gamma - o, gamma').

        Every kind is a trigonometric polynomial of degree at most
        resolution / 2, so the integrand has degree at most 3/2 resolution and
        its interpolant on 4 * resolution samples is exact. Taking moments
        about the sample mean keeps translated bodies free of cancellation.
        """
        points, d1 = self.on_grid(4 * self.resolution, (0, 1))
        origin = points.mean(axis=0)
        g = points - origin
        w = det2(g, d1)
        return origin, TrigInterpolant(np.column_stack([w, g * w[:, None]]))

    @functools.cached_property
    def affine_arc(self):
        """Affine arc length L(s) from 0 as a table: L(t) - L(s) is that of [s, t], and a query evaluates no curve."""
        # the constructors certify det >= -1e-12 of its maximum, so only rounding at a flat point is clipped
        return PeriodicAntiderivative(lambda u: np.clip(self.convexity(u), 0.0, None) ** (1.0 / 3.0))

    @functools.cached_property
    def sweep_grids(self):
        """The s side of every sweep grid solved on this curve, by (n, s0), as ``chord._grid`` builds it."""
        return {}

    def _validate(self):
        """Raise DomainError unless det(g', g'') exceeds -1e-12 of its maximum everywhere and the tangent turns once.

        det is a trigonometric polynomial of degree at most ``resolution``, so
        the grid of n >= 4 resolution points resolves it, and a dip between
        the points lies next to a local minimum of the grid (the last point of
        a level run). Each one is polished by Newton on the derivative
        det(g', g''') within a grid step, whose slope is det(g'', g''') +
        det(g', g''''), until |det'| <= 1e-12 max det, where det is within
        2 step 1e-12 max det of the minimum. A grid det within 1e-12 of its
        maximum everywhere, as rounding leaves a circle's samples or an
        ellipse's affine image, cannot dip between the points. With det > 0 the
        tangent only turns forward, and its steps between grid points, each
        under pi, sum to 2 pi times its number of turns: samples that wind
        round k times pass the pointwise test and turn 2 pi k.
        """
        n = max(_MIN_CONVEXITY_SAMPLES, 4 * self.resolution)
        d1, d2 = self.on_grid(n, (1, 2))
        if not (np.all(np.isfinite(d1)) and np.all(np.isfinite(d2))):
            raise DomainError("curve parameters must be finite")
        speed = norm2(d1)
        if np.any(speed <= 0.0):
            raise DomainError("curve has a singular point on the sample grid")
        convexity = det2(d1, d2)
        low, high = convexity.min(), convexity.max()
        if 0.0 < 1e-12 * high < high - low:
            step = PERIOD / n
            s = step * np.nonzero((convexity <= np.roll(convexity, 1)) & (convexity < np.roll(convexity, -1)))[0]

            def fdf(u):
                d1, d2, d3, d4 = self.derivatives(u, (1, 2, 3, 4))
                return det2(d1, d3), det2(d2, d3) + det2(d1, d4)

            low = min(low, self.convexity(bracketed_newton(fdf, s - step, s + step, s, 1e-12 * high)).min())
        # tolerate roundoff at isolated flat points; reject genuine overshoot
        if low <= -1e-12 * high or high <= 0.0:
            raise DomainError(
                "det(gamma', gamma'') must be positive everywhere "
                f"(min {low:.3e}); curve is not strongly convex "
                "or not positively oriented"
            )
        ahead = np.roll(d1, -1, axis=0)
        turns = round(float(np.sum(np.arctan2(det2(d1, ahead), dot2(d1, ahead)))) / PERIOD)
        if turns != 1:
            raise DomainError(f"the curve winds {turns} times: its tangent must turn once round a convex body")


class LinearArc:
    """L(u) = rate u, the affine arc length of a curve whose det(g', g'') is constant; ``total`` is one period's."""

    def __init__(self, rate):
        self.rate, self.total = rate, rate * PERIOD

    def __call__(self, u):
        return self.rate * np.asarray(u, dtype=float)


class Ellipse(ClosedConvexCurve):
    """Ellipse with semi-axes a and b along its axes, turned by ``rotation`` about ``center``."""

    def __init__(self, a, b, center=(0.0, 0.0), rotation=0.0):
        self.a, self.b, self.rotation = a, b, rotation
        self.center = np.asarray(center, dtype=float).reshape(2)
        # exact convexity: det(gamma', gamma'') = ab > 0 and |gamma'| >= min(a, b) everywhere. Rounded,
        # det is ab up to a few eps max(a, b)^2 and |gamma'|^2 at least min(a, b)^2, so both stay positive
        # while min(a, b) exceeds 64 eps max(a, b) and min(a, b)^2 is a normal float
        if not all(map(math.isfinite, (a, b, rotation, *self.center))):
            raise DomainError("curve parameters must be finite")
        if self.a <= 0.0 or self.b <= 0.0:
            raise DomainError("ellipse semi-axes must be positive")
        if math.pi * self.a * self.b == math.inf:
            raise DomainError(f"ellipse area overflows: pi a b is not finite for a, b = {a}, {b}")
        minor, major = sorted((self.a, self.b))
        if minor * minor < sys.float_info.min or minor <= 64.0 * sys.float_info.epsilon * major:
            raise DomainError(f"ellipse semi-axes {a}, {b} are too small or too unequal to evaluate in floating point")
        c, s = math.cos(self.rotation), math.sin(self.rotation)
        axes = np.array([[c, -s], [s, c]]) * [self.a, self.b]
        # d/ds (cos s, sin s) is the quarter turn [[0, -1], [1, 0]] of it: order k maps
        # (cos s, sin s) by axes times the k-th power of the turn (exact sign swaps)
        self._jets = [axes, axes[:, ::-1] * [1.0, -1.0], -axes, axes[:, ::-1] * [-1.0, 1.0]]

    @functools.cached_property
    def moments(self):
        """The two modes in closed form: about the center, gamma - center = A u with A the axes and
        u = (cos s, sin s), so w = det(A u, A u') = ab and (gamma - center) w = ab A u."""
        ab = self.a * self.b
        (a00, a01), (a10, a11) = self._jets[0] * ab
        modes = [[ab, 0.0, 0.0], [0.0, complex(a00, -a01), complex(a10, -a11)]]
        return self.center, TrigInterpolant.from_coefficients(modes)

    @functools.cached_property
    def affine_arc(self):
        """det(g', g'') = ab everywhere, so L(s) = (ab)^(1/3) s: a line, with no table and no curve evaluation."""
        return LinearArc((self.a * self.b) ** (1.0 / 3.0))

    def derivatives(self, s, orders):
        unit = np.stack([np.cos(s), np.sin(s)], axis=-1)
        out = [unit @ self._jets[order % 4].T for order in orders]
        return [d + self.center if k == 0 else d for d, k in zip(out, orders)]


class FourierRadial(ClosedConvexCurve):
    """Radial graph r(s) = r0 + sum_k (cos_k cos(ks) + sin_k sin(ks)) about the origin."""

    def __init__(self, r0, cos_coeffs=(), sin_coeffs=()):
        self.r0 = r0
        self.cos_coeffs = tuple(float(c) for c in cos_coeffs)
        self.sin_coeffs = tuple(float(c) for c in sin_coeffs)
        if self.r0 <= 0.0:
            raise DomainError("base radius must be positive")
        # adding a zero term is exact, so only the nonzero ones are evaluated;
        # non-finite coefficients stay, for _validate to reject. Each term keeps its
        # coefficient times k^j for every order j
        self._terms = [
            (k, np.array([a * float(k) ** j for j in range(5)]), wave)
            for coeffs, wave in ((self.cos_coeffs, np.cos), (self.sin_coeffs, np.sin))
            for k, a in enumerate(coeffs, start=1)
            if a != 0.0
        ]
        self._validate()

    @property
    def resolution(self):
        n_harmonics = max(len(self.cos_coeffs), len(self.sin_coeffs), 1)
        return max(128, 16 * n_harmonics)

    def _radial(self, s, top):
        """r^(j)(s) for j < top on a leading axis, and the j quarter turns that differentiate cos and sin j times."""
        shift = _QUARTER_TURNS[:top].reshape((top,) + (1,) * s.ndim)
        radial = np.zeros((top,) + s.shape)
        radial[0] = self.r0
        for k, scales, wave in self._terms:
            radial = radial + scales[:top].reshape(shift.shape) * wave(k * s + shift)
        return radial, shift

    def convexity(self, s):
        """det(g', g'') = r^2 + 2 r'^2 - r r'' for g = r (cos s, sin s), from r's series alone."""
        r, r1, r2 = self._radial(np.asarray(s, dtype=float), 3)[0]
        return r * r + 2.0 * r1 * r1 - r * r2

    def derivatives(self, s, orders):
        s = np.asarray(s, dtype=float)
        # r^(j) and the unit vector turned by j quarter turns, for every order j on a leading axis
        radial, shift = self._radial(s, max(orders) + 1)
        radial = radial[..., None]
        units = np.stack([np.cos(s + shift), np.sin(s + shift)], axis=-1)
        # Leibniz rule on r(s) * (cos s, sin s), summed from zero in the order of j
        zero = np.zeros(s.shape + (2,))
        return [sum((math.comb(k, j) * radial[j] * units[k - j] for j in range(k + 1)), zero) for k in orders]


class SampledPeriodic(ClosedConvexCurve):
    """Curve given by N uniform samples; derivatives by trigonometric interpolation."""

    def __init__(self, points):
        self.points = np.asarray(points, dtype=float)
        if self.points.ndim != 2 or self.points.shape[1] != 2 or self.points.shape[0] < 16:
            raise DomainError("expected at least 16 sample points of shape (N, 2)")
        self._interp = TrigInterpolant(self.points)
        self._validate()

    @property
    def resolution(self):
        return self.points.shape[0]

    @property
    def resolved(self):
        """Whether the samples determine the body: their interpolant dropped trailing modes at rounding level."""
        return len(self._interp.modes) < self.resolution // 2 + 1

    def derivatives(self, s, orders):
        return self._interp.derivatives(s, orders)

    def on_grid(self, n, orders):
        return self._interp.on_grid(n, orders)


class AffineImage(ClosedConvexCurve):
    """Pointwise affine image of a base curve under an AffineFrame, keeping its parametrization.

    For orientation-reversing maps the parameter is reflected (s -> PERIOD - s)
    so the image stays positively oriented.
    """

    def __init__(self, base, frame):
        self.base, self.frame = base, frame
        if self.frame.determinant == 0.0:
            raise DomainError("affine frame must be invertible")
        self._reversed = self.frame.determinant < 0.0
        self._validate()

    @property
    def resolution(self):
        return self.base.resolution

    @property
    def resolved(self):
        return self.base.resolved

    def derivatives(self, s, orders):
        s = np.asarray(s, dtype=float)
        base = self.base.derivatives((PERIOD - s) if self._reversed else s, orders)
        out = [self.frame.apply_vector(-d if self._reversed and k % 2 == 1 else d) for d, k in zip(base, orders)]
        return [d + self.frame.translation if k == 0 else d for d, k in zip(out, orders)]


# ---------------------------------------------------------------------------
# operations


def curvature(d1, w):
    """Oriented curvature w / |d1|^3 from the first parameter derivative d1 and w = det(d1, d2), d2 the second."""
    speed = norm2(d1)
    if np.any(speed == 0.0):
        raise DomainError("zero tangent vector")
    return w / speed**3


def affine_normal(d1, d2, d3):
    """The affine normal from the parameter derivatives of orders 1 to 3."""
    d = det2(d1, d2)
    if np.any(d <= 0.0):
        raise DomainError("affine normal requires det(g', g'') > 0")
    d = np.asarray(d)[..., None]
    dd = np.asarray(det2(d1, d3))[..., None]
    return d2 * d ** (-2.0 / 3.0) - (d1 * dd) * d ** (-5.0 / 3.0) / 3.0


def area(curve):
    """Enclosed area (1/2) * integral of det(gamma, gamma') over one period."""
    return 0.5 * PERIOD * float(curve.moments[1].mean[0])


# ---------------------------------------------------------------------------
# JSON curve specs


# the keys each curve spec kind may set besides "kind"; any other key is a DomainError
SPEC_KEYS = {
    "ellipse": ("a", "b", "center", "rotation"),
    "fourier_radial": ("r0", "cos", "sin"),
    "samples": ("points",),
}


def is_number(value):
    """Whether a JSON value is a number: a float, or an int that a float holds, never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, float) or abs(value) <= sys.float_info.max


def curve_from_json(spec):
    """Build a curve from its JSON description (see README for the schema)."""
    try:
        kind = spec["kind"]
    except (TypeError, KeyError):
        raise DomainError("curve spec must be an object with a 'kind' field")
    if not isinstance(kind, str) or kind not in SPEC_KEYS:
        raise DomainError(f"unknown curve kind {kind!r}")
    unknown = [key for key in spec if key != "kind" and key not in SPEC_KEYS[kind]]
    if unknown:
        raise DomainError(f"unknown key {unknown[0]!r} in {kind!r} curve spec (allowed: {', '.join(SPEC_KEYS[kind])})")
    try:
        for key in SPEC_KEYS[kind]:
            values = np.asarray(spec.get(key, ()), dtype=object).ravel()
            # all floats, as a samples spec's points usually are, need no test one by one
            bad = [] if set(map(type, values)) <= {float} else [v for v in values if not is_number(v)]
            if bad:
                raise DomainError(f"{key!r} in {kind!r} curve spec must hold only numbers, got {bad[0]!r}")
        if kind == "ellipse":
            return Ellipse(
                a=float(spec["a"]),
                b=float(spec["b"]),
                center=np.asarray(spec.get("center", (0.0, 0.0)), dtype=float),
                rotation=float(spec.get("rotation", 0.0)),
            )
        if kind == "fourier_radial":
            return FourierRadial(
                r0=float(spec["r0"]),
                cos_coeffs=tuple(spec.get("cos", ())),
                sin_coeffs=tuple(spec.get("sin", ())),
            )
        return SampledPeriodic(points=np.asarray(spec["points"], dtype=float))
    except DomainError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed {kind!r} curve spec: {exc!r}")
