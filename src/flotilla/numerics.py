"""Shared numerical kernels: the periodic antiderivative table, trigonometric interpolation, root finding."""

import math

import numpy as np

from .errors import SolverError

# the order-8 Gauss-Legendre rule on [-1, 1] as numpy.polynomial.legendre.leggauss(8) gives it,
# without importing numpy.polynomial: the upper-half nodes (row 0) and weights (row 1), mirrored
_GAUSS_HALF = np.array([[0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362],
                        [0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706]])
_GAUSS_NODES, _GAUSS_WEIGHTS = np.concatenate([_GAUSS_HALF[:, ::-1] * [[-1.0], [1.0]], _GAUSS_HALF], axis=1)
_EPS = np.finfo(float).eps
# up to this many entries (lanes x modes) one exp of the whole trigonometric table is
# cheaper than the cumulative product, which costs a few microseconds at any size
_SMALL_TABLE = 64

MAX_PANELS = 8192
# bounds the integrand's temporaries: a round that cuts 100 panels in 8 is 19,200 nodes
MAX_NODES_PER_CALL = 2048
# PeriodicAntiderivative: the uniform panels of its first round, the pieces it cuts a panel into
# (8 builds bump3's table in 7 rounds and 0.63x the time of halving, in 18) and its relative budget
TABLE_FIRST_PANELS = 32
TABLE_SPLIT = 8
TABLE_REL_TOL = 1e-12

# bracketed_newton: a lane whose step is below this, relative to max(1, |x|), has converged
NEWTON_X_TOL = 1e-15
NEWTON_MAX_ITER = 100

# the parameter interval of every periodic function here: the curves, their interpolants and tables
PERIOD = 2.0 * math.pi


def _adaptive_panels(f):
    """Converged panels of one period: their lower and upper ends, f at the half-panel nodes, and the rounds.

    Locally adaptive Gauss-Legendre of order 8 with one global error budget
    (Gander & Gautschi, BIT 40, 2000), from TABLE_FIRST_PANELS uniform
    panels. A panel's value is the sum over its halves, its error the change
    from the one-panel value. Each round cuts the panels above an equal share
    of the budget in TABLE_SPLIT until the summed errors are within
    TABLE_REL_TOL of the whole, and never below rounding. A non-finite
    integrand, or a budget not met within MAX_PANELS splits, is a SolverError.
    """
    first = np.linspace(0.0, PERIOD, TABLE_FIRST_PANELS + 1)
    lo, hi = first[:-1], first[1:]
    value, err, nodes = _halved_panels(f, lo, hi)
    rounds = 1
    while True:
        total = value.sum()
        err_sum = err.sum()
        if not math.isfinite(err_sum):
            raise SolverError(f"quadrature on [0, {PERIOD}]: the integrand is not finite")
        rounding = 50.0 * _EPS * np.abs(value).sum()
        tol = max(TABLE_REL_TOL * abs(total), rounding)
        if err_sum <= tol:
            return lo, hi, nodes, rounds
        if len(lo) >= TABLE_FIRST_PANELS + MAX_PANELS:
            raise SolverError(
                f"quadrature on [0, {PERIOD}] did not converge below rel_tol={TABLE_REL_TOL} "
                f"within {MAX_PANELS} panel splits (error estimate {err_sum:.3e})"
            )
        split = err > tol / len(err)
        keep = ~split
        # exact ends, and for halves exactly 0.5 * (lo + hi)
        w = np.arange(TABLE_SPLIT + 1) / TABLE_SPLIT
        cuts = lo[split, None] * (1.0 - w) + hi[split, None] * w
        new = (cuts[:, :-1].ravel(), cuts[:, 1:].ravel())
        new += _halved_panels(f, *new)
        old = lo, hi, value, err, nodes
        lo, hi, value, err, nodes = (np.concatenate([a[keep], b]) for a, b in zip(old, new))
        rounds += 1


def _halved_panels(f, lo, hi):
    """Two-half value of every panel, its change from the one-panel value, and f at the nodes of the halves."""
    mid = 0.5 * (lo + hi)
    sums, nodes = _gauss_panels(f, np.concatenate([lo, lo, mid]), np.concatenate([hi, mid, hi]))
    whole, left, right = sums.reshape(3, -1)
    value = left + right
    return value, np.abs(value - whole), np.hstack(nodes.reshape(3, len(lo), -1)[1:])


def _gauss_panels(f, lo, hi):
    """Order-8 Gauss-Legendre value of every panel [lo_i, hi_i] and f at its nodes, in blocks of f calls."""
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (hi + lo))[:, None] + half[:, None] * _GAUSS_NODES
    block = MAX_NODES_PER_CALL // len(_GAUSS_NODES)
    values = np.concatenate(
        [np.asarray(f(nodes[i : i + block].ravel()), dtype=float) for i in range(0, len(nodes), block)]
    ).reshape(nodes.shape)
    return (values @ _GAUSS_WEIGHTS) * half, values


def _legendre(x):
    """The Legendre polynomials P_0..P_8 at x on a leading axis, by Bonnet's recurrence."""
    p = [np.ones_like(x), x]
    for n in range(1, 8):
        p.append(((2 * n + 1) * x * p[n] - n * p[n - 1]) / (n + 1))
    return np.stack(p)


# f at the nodes to the P_0..P_8 coefficients of the integral from -1 of its interpolant sum_k a_k P_k: the
# integral of P_k is (P_(k+1) - P_(k-1)) / (2k + 1) (P_0 + P_1 for k = 0), so with g_k = a_k / (2k + 1) =
# sum_j w_j P_k(x_j) f_j / 2 the P_0 coefficient is g_0 - g_1 and the P_m one g_(m-1) - g_(m+1)
_G = np.vstack([0.5 * _legendre(_GAUSS_NODES)[:8] * _GAUSS_WEIGHTS, np.zeros((2, 8))])
_ANTIDERIVATIVE = np.vstack([_G[0] - _G[1], _G[:8] - _G[2:]])


class PeriodicAntiderivative:
    """F(u), the integral over [0, u] of a PERIOD-periodic f, as a table from one adaptive pass over one period.

    ``_adaptive_panels`` cuts each panel above its share of the budget in
    TABLE_SPLIT, so a cube-root cusp takes a few rounds, not dozens. It is
    the package's only quadrature. F(u) is the extended-precision sum
    of the half-panels below u plus the integral of the degree-7 interpolant
    of f on the one that holds u; F(u + PERIOD) = F(u) + ``total``. The
    TABLE_REL_TOL budget bounds the panel sums, and so F at the half-panel
    ends and ``total``. It does not bound F inside a half-panel, which is
    only as good as the interpolant there: f = 1 + cos 20u converges in one
    round with an exact total, and F is off by 1.0e-10 relative between the
    ends.
    """

    def __init__(self, f):
        lo, hi, nodes, self.rounds = _adaptive_panels(f)
        # the panels tile the period, so the sorted half-panel ends are their lower ends, mid-points and the period
        order = np.argsort(lo)
        edges = np.append(np.stack([lo, 0.5 * (lo + hi)], axis=1)[order].ravel(), PERIOD)
        self._lo, values = edges[:-1], nodes[order].reshape(-1, 8)
        self._center, self._half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
        self._coeffs = (values @ _ANTIDERIVATIVE.T) * self._half[:, None]
        self._below = np.concatenate([[0.0], np.cumsum((values @ _GAUSS_WEIGHTS) * self._half, dtype=np.longdouble)])
        self.total = float(self._below[-1])

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        turns = np.floor(u / PERIOD)
        r = u - turns * PERIOD
        i = np.clip(np.searchsorted(self._lo, r, side="right") - 1, 0, len(self._lo) - 1)
        x = np.clip((r - self._center[i]) / self._half[i], -1.0, 1.0)
        inside = np.einsum("...m,m...->...", self._coeffs[i], _legendre(x))
        return (self._below[i] + inside + turns * self._below[-1]).astype(float)


class TrigInterpolant:
    """Trigonometric interpolant of uniform periodic samples.

    Evaluates the band-limited interpolant, its derivatives and (``order=-1``)
    its antiderivative at arbitrary parameter values. Samples may be scalar
    (N,) or vector (N, k). Trailing modes at rounding level (below 64 eps
    times the largest coefficient) are dropped, so a low-degree trigonometric
    polynomial costs its own degree to evaluate, not the sample count.
    ``from_coefficients`` builds it from a series already known in closed form.
    """

    def __init__(self, samples):
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
        self._setup(coeffs[: kept[-1] + 1 if len(kept) else 1])

    @classmethod
    def from_coefficients(cls, coeffs):
        """The series Re sum_k coeffs[k] e^(iks) itself, with coeffs[0] real: no samples, no FFT."""
        self = cls.__new__(cls)
        self._setup(np.asarray(coeffs, dtype=complex))
        return self

    def _setup(self, coeffs):
        self.coeffs = coeffs
        self.modes = np.arange(self.coeffs.shape[0])
        self.mean = self.coeffs[0].real
        self._wave = 1j * self.modes
        self._real = {}

    def _coefficients(self, order):
        """Re(f_k c_k) and -Im(f_k c_k) interleaved by mode, f the order's factor: the table's float view times them."""
        if order not in self._real:
            # antiderivative: c_k / (i k) for k >= 1; the mean term gives mean * s
            f = np.concatenate([[0.0], 1.0 / self._wave[1:]]) if order == -1 else self._wave**order
            c = f.reshape(-1, *([1] * (self.coeffs.ndim - 1))) * self.coeffs
            self._real[order] = np.stack([c.real, -c.imag], axis=1).reshape(2 * len(c), *c.shape[1:])
        return self._real[order]

    def derivatives(self, s, orders):
        """The order-th derivatives (-1: antiderivative) at s, one array per order, from one table.

        The table e^(iks) is one exp and a cumulative product along
        the mode axis, and each order costs one real matrix product with it.
        """
        s = np.asarray(s, dtype=float)
        if s.size * len(self.modes) <= _SMALL_TABLE:
            table = np.exp(np.multiply.outer(s, self._wave))
        else:
            table = np.empty(s.shape + self.modes.shape, dtype=complex)
            table[..., 0] = 1.0
            table[..., 1:] = np.exp(1j * s)[..., None]
            np.cumprod(table, axis=-1, out=table)
        out = [table.view(float) @ self._coefficients(order) for order in orders]
        return [v + np.multiply.outer(s, self.mean) if k == -1 else v for v, k in zip(out, orders)]

    def on_grid(self, n, orders):
        """The order-th derivatives (orders >= 0) at s_j = j PERIOD / n, from one inverse FFT and no table.

        irfft takes the half spectrum of a real signal: an interior mode is one
        half of its Hermitian pair, the DC and Nyquist (k = N/2) ones whole. A
        series of M modes is taken on the grid of N = rn points that holds it,
        r = ceil(2 (M - 1) / n), and every r-th point kept.
        """
        r = max(1, -(-2 * (len(self.modes) - 1) // n))
        weight = np.where((self.modes == 0) | (2 * self.modes == r * n), r * n, 0.5 * r * n)
        trailing = [1] * (self.coeffs.ndim - 1)
        scaled = np.stack([(weight * self._wave**order).reshape(-1, *trailing) * self.coeffs for order in orders])
        return list(np.fft.irfft(scaled, r * n, axis=1)[:, ::r])

    def __call__(self, s, order=0):
        return self.derivatives(s, (order,))[0]


def bracketed_newton(fdf, lo, hi, x0, f_tol):
    """Safeguarded Newton iteration on independent lanes, each rising through its root inside its bracket.

    ``lo``, ``hi``, ``x0`` and ``f_tol`` broadcast to one flat array of
    lanes; ``fdf`` maps the array of per-lane abscissae to the per-lane
    values and slopes ``(f, f')`` at them, so one call per round serves both
    (the ``funcd`` of Numerical Recipes' rtsafe). Every lane's residual must
    rise through its root, f(lo) < 0 < f(hi), so the bracket ends are not
    evaluated up front: an iterate with f < 0 becomes its lane's lo and one
    with f > 0 its hi. Each lane falls back to bisection whenever its Newton
    step leaves its bracket; a lane freezes once |f| <= f_tol or its step is
    below NEWTON_X_TOL relative to max(1, |x|), and the loop ends when every
    lane has; after NEWTON_MAX_ITER rounds it raises SolverError. The first
    call is at the clipped start: if every lane meets f_tol there, nothing
    else is evaluated. A lane that froze on its step off f_tol, without
    iterates on both sides of its root, has its bracket ends evaluated after
    the loop (two calls for all such lanes) and must show f(lo) <= 0 <=
    f(hi), or SolverError names its bracket. So a lane without a root, or
    whose residual falls, first bisects to a bracket end and then raises.
    """
    lo, hi, x0, f_tol = (np.array(v, dtype=float) for v in np.broadcast_arrays(lo, hi, x0, f_tol))
    x = np.clip(x0, lo, hi)
    fx, d = fdf(x)
    done = np.abs(fx) <= f_tol
    if done.all():
        return x
    lo0, hi0 = lo, hi
    for _ in range(NEWTON_MAX_ITER):
        active = ~done
        to_lo = active & (fx < 0.0)
        lo = np.where(to_lo, x, lo)
        hi = np.where(active & ~to_lo, x, hi)
        tol = NEWTON_X_TOL * np.maximum(1.0, np.abs(x))
        with np.errstate(divide="ignore", invalid="ignore"):
            x_new = np.where((d != 0.0) & np.isfinite(d), x - fx / d, np.nan)
        # a converged Newton step is taken even when it ends on or just past a
        # bracket end: an earlier iterate at the root may have become that end
        step_ok = ((lo < x_new) & (x_new < hi)) | (np.abs(x_new - x) <= tol)
        x_new = np.where(step_ok, x_new, 0.5 * (lo + hi))
        done |= active & (np.abs(x_new - x) <= tol)
        x = np.where(active, x_new, x)
        if done.all():
            break
        fx, d = fdf(x)
        done |= np.abs(fx) <= f_tol
        if done.all():
            break
    else:
        worst = float(np.max(np.abs(fx[~done])))
        raise SolverError(f"Newton iteration did not converge (residual {worst:.3e})")
    # the lanes that stopped on their step, off f_tol, with no iterate on one side of the root
    unchecked = ~(np.abs(fx) <= f_tol) & ((lo == lo0) | (hi == hi0))
    if unchecked.any():
        f_lo, _ = fdf(lo0)
        f_hi, _ = fdf(hi0)
        bad = unchecked & ~((f_lo <= 0.0) & (f_hi >= 0.0))
        if bad.any():
            i = int(np.argmax(bad))
            raise SolverError(
                f"no sign change on bracket [{lo0[i]}, {hi0[i]}] from f <= 0 to f >= 0 "
                f"(f = {f_lo[i]:.3e} and {f_hi[i]:.3e} at its ends)"
            )
    return x


def convex_newton(h, dh, y, x):
    """Root of h = y > 0 for a scalar h increasing and convex on (0, x] with h(0) = 0, by Newton from x.

    In plain floats; the iterates fall monotonically, so the loop ends when rounding stops them.
    """
    for _ in range(50):  # the chord angles take fewer than 10 steps
        x_new = x - (h(x) - y) / dh(x)
        if not 0.0 < x_new < x:
            break
        x = x_new
    return x
