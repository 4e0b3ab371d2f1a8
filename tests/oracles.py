"""Independent brute-force oracles the implementation is checked against.

Everything here deliberately avoids the library's own code paths: a full
token-by-anchor distance matrix for nearest-anchor owners and distances,
the ordered-dither matrix by its block recursion, direct 2-D
convolution with explicit index clamping, per-window enumeration for
variances, adaptive quadrature + root finding for the Beta CDF inverse,
Monte Carlo regression for the analytic velocity field, the analytic
field's first evaluation (gather, then a per-token sigma column), a
partial Fisher-Yates selection that draws one bounded integer per pick,
and the importance map's two-filter formula and the Gaussian blur as
first written with scipy (fresh temporaries, (h, w, d) layout).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq


def brute_owner_map(indices: np.ndarray, h: int, w: int) -> np.ndarray:
    """Nearest anchor of every token by exhaustive search.

    Builds the full (h*w) x m matrix of integer squared distances between
    (row, col) positions; argmin returns the first minimum, so ties go to
    the lowest anchor index.  Memory is O(N * m), fine for test grids only.
    """
    tokens = np.arange(h * w, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    dist2 = (tokens[:, None] // w - indices[None, :] // w) ** 2 + (
        tokens[:, None] % w - indices[None, :] % w
    ) ** 2
    return np.argmin(dist2, axis=1)


def brute_anchor_distance(indices: np.ndarray, h: int, w: int) -> np.ndarray:
    """Euclidean distance of every token to its nearest anchor, exhaustively.

    The square root of the smallest integer squared distance in the full
    (h*w) x m matrix; 0 at the anchors.  Test grids only.
    """
    tokens = np.arange(h * w, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    dist2 = (tokens[:, None] // w - indices[None, :] // w) ** 2 + (
        tokens[:, None] % w - indices[None, :] % w
    ) ** 2
    return np.sqrt(dist2.min(axis=1).astype(np.float64))


def bayer_matrix(bits: int) -> np.ndarray:
    """The 2^bits x 2^bits ordered-dither matrix of Bayer (1973).

    M_1 = [[0]] and M_2n = [[4 M_n, 4 M_n + 2], [4 M_n + 3, 4 M_n + 1]],
    indexed [row, col].
    """
    m = np.zeros((1, 1), dtype=np.int64)
    for _ in range(bits):
        m = np.block([[4 * m, 4 * m + 2], [4 * m + 3, 4 * m + 1]])
    return m


def scalar_choose(stream, items: np.ndarray, k: int) -> np.ndarray:
    """UniformStream.choose one pick at a time: an integer_below per swap."""
    pool = np.array(items, copy=True)
    n = len(pool)
    if not 0 <= k <= n:
        raise ValueError(f"cannot choose {k} of {n} items")
    for j in range(k):
        swap = j + stream.integer_below(n - j)
        pool[j], pool[swap] = pool[swap], pool[j]
    return np.sort(pool[:k])


def gaussian_kernel(sigma: float, size: int) -> np.ndarray:
    """Normalized Gaussian taps at integer offsets -size//2 .. size//2."""
    offsets = np.arange(size, dtype=np.float64) - size // 2
    k = np.exp(-0.5 * (offsets / sigma) ** 2)
    return k / k.sum()


def dense_conv2d_replicate(arr: np.ndarray, kernel1d: np.ndarray) -> np.ndarray:
    """Full 2-D convolution with the separable kernel's outer product.

    arr is (h, w) or (h, w, d); out-of-range taps clamp to the edge.
    """
    k2 = np.outer(kernel1d, kernel1d)
    r = len(kernel1d) // 2
    squeeze = arr.ndim == 2
    if squeeze:
        arr = arr[:, :, None]
    h, w, d = arr.shape
    out = np.zeros_like(arr, dtype=np.float64)
    for i in range(h):
        for j in range(w):
            acc = np.zeros(d)
            for di in range(-r, r + 1):
                for dj in range(-r, r + 1):
                    ii = min(max(i + di, 0), h - 1)
                    jj = min(max(j + dj, 0), w - 1)
                    acc += k2[di + r, dj + r] * arr[ii, jj]
            out[i, j] = acc
    return out[:, :, 0] if squeeze else out


def windowed_variance_scores(u: np.ndarray, window: int) -> np.ndarray:
    """Per-token windowed variance, mean over channels, by direct enumeration.

    u is (h, w, d); windows clamp at the edges (replicate padding collects
    edge values multiple times, so enumeration must clamp, not skip).
    """
    h, w, d = u.shape
    r = window // 2
    scores = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            acc = 0.0
            for c in range(d):
                vals = []
                for di in range(-r, r + 1):
                    for dj in range(-r, r + 1):
                        ii = min(max(i + di, 0), h - 1)
                        jj = min(max(j + dj, 0), w - 1)
                        vals.append(float(u[ii, jj, c]))
                vals = np.asarray(vals)
                acc += float((vals * vals).mean() - vals.mean() ** 2)
            scores[i, j] = max(acc / d, 0.0)
    return scores.ravel()


def reference_importance(u: np.ndarray, window: int) -> np.ndarray:
    """Importance scores of an (h, w, d) velocity, formula as first written.

    Per-channel windowed variance from two box means (uniform_filter with
    replicate padding) after anchoring each channel at its minimum, then
    the channel mean, clamped at zero; the library must match it bitwise.
    """
    from scipy.ndimage import uniform_filter

    u = np.asarray(u).astype(np.float64)
    u = u - u.min(axis=(0, 1), keepdims=True)

    def box_mean(a: np.ndarray) -> np.ndarray:
        return uniform_filter(a, size=(window, window, 1), mode="nearest")

    var = box_mean(u * u) - box_mean(u) ** 2
    scores = np.maximum(var.mean(axis=2), 0.0)
    return scores.ravel()


def reference_blur(u: np.ndarray, sigma: float, kernel_size: int) -> np.ndarray:
    """Blur of an (h, w, d) grid in its own layout, as first written.

    gaussian_filter over the two grid axes (sigma 0 skips the channel
    axis) with replicate padding, in float64, cast back to float32; the
    library must match it bitwise.
    """
    from scipy.ndimage import gaussian_filter

    r = kernel_size // 2
    out = gaussian_filter(np.asarray(u).astype(np.float64), (sigma, sigma, 0.0),
                          mode="nearest", radius=(r, r, 0))
    return out.astype(np.float32)


def beta_cdf_quadrature(x: float, a: float, b: float) -> float:
    """Beta CDF by adaptive quadrature with algebraic endpoint weighting.

    The 'alg' weight takes powers of (t - lo) and (hi - t), so the endpoint
    singularity must sit at an integration limit: integrate [0, x] with the
    t^(a-1) factor in the weight for small x, and the [x, 1] tail with the
    (1-t)^(b-1) factor in the weight otherwise.
    """
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    norm = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
    if x <= 0.5:
        if a < 1.0:  # weight absorbs the t^(a-1) singularity at t=0
            val, _ = quad(
                lambda t: (1.0 - t) ** (b - 1.0), 0.0, x,
                weight="alg", wvar=(a - 1.0, 0.0), limit=200,
            )
        else:
            val, _ = quad(
                lambda t: t ** (a - 1.0) * (1.0 - t) ** (b - 1.0), 0.0, x,
                limit=200,
            )
        return norm * val
    if b < 1.0:  # weight absorbs the (1-t)^(b-1) singularity at t=1
        tail, _ = quad(
            lambda t: t ** (a - 1.0), x, 1.0,
            weight="alg", wvar=(0.0, b - 1.0), limit=200,
        )
    else:
        tail, _ = quad(
            lambda t: t ** (a - 1.0) * (1.0 - t) ** (b - 1.0), x, 1.0,
            limit=200,
        )
    return 1.0 - norm * tail


def beta_inverse_quadrature(s: float, a: float, b: float) -> float:
    """Quantile via root finding on the quadrature CDF.

    Valid for s in [1e-6, 1 - 1e-6]: the bracket endpoints return
    sign-faithful sentinels instead of evaluating the weighted quadrature
    on a zero-width singular interval.
    """
    if s <= 0.0:
        return 0.0
    if s >= 1.0:
        return 1.0
    if not 1e-6 <= s <= 1.0 - 1e-6:
        raise ValueError(f"oracle quantile only supports interior s, got {s}")
    lo, hi = 1e-12, 1.0 - 1e-12

    def f(x: float) -> float:
        if x <= lo:
            return -s
        if x >= hi:
            return 1.0 - s
        return beta_cdf_quadrature(x, a, b) - s

    return brentq(f, lo, hi, xtol=1e-12, rtol=8.9e-16, maxiter=200)


def gaussian_flow_velocity_quadrature(
    x: float, t: float, mu: float, sigma1: float
) -> float:
    """E[x1 - x0 | x_t = x] by Bayes' rule and adaptive quadrature over x1.

    Definitional route: x_t = t*x1 + (1-t)*x0 pins x0 = (x - t*x1)/(1-t)
    given x1, the posterior weight is N(x1; mu, sigma1^2) * N(x; t*x1,
    (1-t)^2), and the velocity is the posterior mean of x1 - x0.  Needs
    t < 1 and sigma1 > 0.
    """
    b = 1.0 - t

    def weight(x1: float) -> float:
        return math.exp(
            -((x1 - mu) ** 2) / (2.0 * sigma1 * sigma1)
            - ((x - t * x1) ** 2) / (2.0 * b * b)
        )

    def numer(x1: float) -> float:
        x0 = (x - t * x1) / b
        return (x1 - x0) * weight(x1)

    # posterior in x1 is a product of two Gaussians; use its peak and width
    # only to place integration limits so quad cannot miss a narrow spike
    prec = 1.0 / (sigma1 * sigma1) + (t * t) / (b * b)
    peak = ((mu / (sigma1 * sigma1)) + (t * x) / (b * b)) / prec
    half = 30.0 / math.sqrt(prec)
    scale = weight(peak)  # normalize so the abs tolerance cannot dominate
    num, _ = quad(lambda v: numer(v) / scale, peak - half, peak + half,
                  limit=300, epsabs=1e-13, epsrel=1e-10)
    den, _ = quad(lambda v: weight(v) / scale, peak - half, peak + half,
                  limit=300, epsabs=1e-13, epsrel=1e-10)
    return num / den


def gaussian_flow_velocity_mc(
    x: float, t: float, mu: float, sigma1: float, n: int, bandwidth: float, seed: int
) -> tuple[float, float]:
    """(estimate, standard error) for E[x1 - x0 | x_t near x] by simulation.

    Draws endpoint pairs, keeps those whose path point falls within the
    bandwidth window around x, and averages x1 - x0 over the window.  Pure
    definition, no posterior algebra at all.
    """
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(n)
    x1 = mu + sigma1 * rng.standard_normal(n)
    xt = t * x1 + (1.0 - t) * x0
    sel = np.abs(xt - x) < bandwidth
    if sel.sum() < 100:
        raise ValueError("window too narrow for a stable estimate")
    cond = (x1 - x0)[sel]
    return float(cond.mean()), float(cond.std(ddof=1) / math.sqrt(sel.sum()))


def column_gaussian_evaluate(
    mu_data: np.ndarray, sigma1, indices: np.ndarray, x: np.ndarray, t: float
) -> np.ndarray | None:
    """GaussianFlowField.evaluate as first written, before the float32 cast.

    Gathers the float32 target rows and widens them, expands a scalar
    sigma1 to one value per token, and broadcasts an (m, 1) coefficient
    column over the block in fresh float64 temporaries.  Returns None where
    the coefficient's denominator is zero (sigma1^2 = 0 at t = 1), the case
    the library refuses.
    """
    sig = np.asarray(sigma1, dtype=np.float64)
    if sig.ndim == 0:
        sig = np.full(mu_data.shape[0], float(sig))
    mu = np.take(mu_data, indices, axis=0).astype(np.float64)
    s2 = sig[indices][:, None] ** 2
    a, b = t, 1.0 - t
    denom = a * a * s2 + b * b
    if np.any(denom == 0.0):
        return None
    coeff = (a * s2 - b) / denom
    return mu + coeff * (np.asarray(x, dtype=np.float64) - a * mu)
