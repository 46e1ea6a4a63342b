"""Shared numerical kernels: panel quadrature, trigonometric interpolation, root finding."""

from __future__ import annotations

import math

import numpy as np

from .errors import AccuracyError, SolverError

_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(8)
_EPS = np.finfo(float).eps

MAX_PANELS = 8192


def signed_cbrt(x):
    """Cube root with sign(x)|x|^(1/3) convention, elementwise."""
    return np.sign(x) * np.abs(x) ** (1.0 / 3.0)


def panel_quadrature(f, a, b, rel_tol=1e-12, abs_tol=0.0, initial_panels=4):
    """Integrate a (possibly vector-valued) function over [a, b].

    Locally adaptive Gauss-Legendre of order 8 with a global error budget
    (Gander & Gautschi, BIT 40, 2000). A panel's value is the sum over its
    halves, its error the change from the one-panel value. Each round splits
    the panels above an equal share of the budget, in one call of ``f``, and
    stops when the summed errors are within ``rel_tol`` relative or
    ``abs_tol`` absolute, whichever is laxer, and never below rounding level.
    Smooth integrands take one round; a cube-root cusp a few dozen.

    ``f`` must accept an array of abscissae and return an array whose leading
    axis matches it; trailing axes are integrated componentwise.
    """
    if a == b:
        probe = np.asarray(f(np.array([a])))
        return np.zeros(probe.shape[1:])
    edges = np.linspace(a, b, initial_panels + 1)
    lo, hi = edges[:-1], edges[1:]
    value, err = _halved_panels(f, lo, hi)
    while True:
        total = value.sum(axis=0)
        err_sum = err.sum()
        if not math.isfinite(err_sum):
            raise AccuracyError(f"quadrature on [{a}, {b}]: the integrand is not finite")
        rounding = 50.0 * _EPS * np.abs(value).sum(axis=0).max()
        tol = max(rel_tol * np.abs(total).max(), abs_tol, rounding)
        if err_sum <= tol:
            return total
        if len(lo) >= MAX_PANELS:
            raise AccuracyError(
                f"quadrature on [{a}, {b}] did not converge below rel_tol={rel_tol} "
                f"within {MAX_PANELS} panels (error estimate {err_sum:.3e})"
            )
        split = err > tol / len(err)
        keep = ~split
        mid = 0.5 * (lo + hi)
        new_lo = np.concatenate([lo[split], mid[split]])
        new_hi = np.concatenate([mid[split], hi[split]])
        new_value, new_err = _halved_panels(f, new_lo, new_hi)
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        value = np.concatenate([value[keep], new_value])
        err = np.concatenate([err[keep], new_err])


def _halved_panels(f, lo, hi):
    """Two-half value of every panel and its largest componentwise change from the one-panel value."""
    n = len(lo)
    mid = 0.5 * (lo + hi)
    sums = _gauss_panels(f, np.concatenate([lo, lo, mid]), np.concatenate([hi, mid, hi]))
    whole, left, right = sums.reshape(3, n, *sums.shape[1:])
    value = left + right
    return value, np.abs(value - whole).reshape(n, -1).max(axis=1)


def _gauss_panels(f, lo, hi):
    """Order-8 Gauss-Legendre value of every panel [lo_i, hi_i], from one call of f."""
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (hi + lo))[:, None] + half[:, None] * _GAUSS_NODES
    values = np.asarray(f(nodes.ravel()), dtype=float)
    # contract the node axis, with the components of a vector integrand kept last
    per_panel = values.reshape(len(lo), len(_GAUSS_NODES), -1).swapaxes(1, 2) @ _GAUSS_WEIGHTS
    return (per_panel * half[:, None]).reshape(len(lo), *values.shape[1:])


def periodic_trapezoid(samples, period):
    """Integrate uniform samples of a smooth periodic function over one period.

    Spectrally accurate for smooth periodic integrands.
    """
    samples = np.asarray(samples, dtype=float)
    return samples.mean(axis=0) * period


class TrigInterpolant:
    """Trigonometric interpolant of uniform periodic samples.

    Evaluates the band-limited interpolant, its derivatives and (``order=-1``)
    its antiderivative at arbitrary parameter values. Samples may be scalar
    (N,) or vector (N, k). Trailing modes at rounding level (below 64 eps
    times the largest coefficient) are dropped, so a low-degree trigonometric
    polynomial costs its own degree to evaluate, not the sample count.
    """

    def __init__(self, samples, period):
        samples = np.asarray(samples, dtype=float)
        n = samples.shape[0]
        coeffs = np.fft.rfft(samples, axis=0) / n
        # real-series weights: DC and Nyquist once, interior modes twice
        weights = np.full(coeffs.shape[0], 2.0)
        weights[0] = 1.0
        if n % 2 == 0:
            weights[-1] = 1.0
        coeffs = coeffs * weights.reshape(-1, *([1] * (samples.ndim - 1)))
        size = np.abs(coeffs).reshape(coeffs.shape[0], -1).max(axis=1)
        kept = np.nonzero(size > 64.0 * _EPS * size.max())[0]
        self.coeffs = coeffs[: kept[-1] + 1 if len(kept) else 1]
        self.modes = np.arange(self.coeffs.shape[0])
        self.mean = self.coeffs[0].real
        self.wave = 1j * (2.0 * np.pi / period) * self.modes
        # antiderivative: c_k / (i k omega) for k >= 1; the mean term gives mean * s
        self.integral = np.concatenate([[0.0], 1.0 / self.wave[1:]])

    def __call__(self, s, order=0):
        s = np.asarray(s, dtype=float)
        factor = self.integral if order == -1 else self.wave**order
        out = (np.exp(np.multiply.outer(s, self.wave)) * factor) @ self.coeffs
        if order == -1:
            return out.real + np.multiply.outer(s, self.mean)
        return out.real


def bracketed_newton(f, dfdx, lo, hi, x0, f_tol, x_tol=1e-15, max_iter=100):
    """Safeguarded Newton iteration inside a sign-change bracket [lo, hi].

    Falls back to bisection whenever the Newton step leaves the bracket or
    fails to shrink the residual. ``f(lo)`` and ``f(hi)`` must have opposite
    signs; convergence is declared on |f| <= f_tol.
    """
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if np.sign(flo) == np.sign(fhi):
        raise SolverError(f"no sign change on bracket [{lo}, {hi}]")
    x = np.clip(x0, lo, hi)
    for _ in range(max_iter):
        fx = f(x)
        if abs(fx) <= f_tol:
            return x
        if np.sign(fx) == np.sign(flo):
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
        d = dfdx(x)
        tol = x_tol * max(1.0, abs(x))
        x_new = x - fx / d if d != 0.0 and np.isfinite(d) else math.nan
        # a converged Newton step is taken even when it ends on or just past a
        # bracket end: an earlier iterate at the root may have become that end
        if not (lo < x_new < hi or abs(x_new - x) <= tol):
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= tol:
            return x_new
        x = x_new
    raise SolverError(f"Newton iteration did not converge (residual {fx:.3e})")


def expand_bracket(g, center, width, lo_limit, hi_limit, max_expansions=64):
    """Grow [center-width, center+width] geometrically until g changes sign.

    The bracket is clipped to (lo_limit, hi_limit); raises SolverError if no
    sign change is found before the limits are exhausted.
    """
    for _ in range(max_expansions):
        lo = max(center - width, lo_limit)
        hi = min(center + width, hi_limit)
        if g(lo) * g(hi) <= 0.0:
            return lo, hi
        if lo == lo_limit and hi == hi_limit:
            break
        width *= 2.0
    raise SolverError(
        f"no sign change in ({lo_limit}, {hi_limit}) around {center}"
    )
