"""Velocity fields with analytic ground truth, plus run plumbing they share.

The engine integrates dy/dt = u(y, t) from noise at t=0 to data at t=1.  A
field only ever sees the active-token block, so any backend that maps
(block, indices, t) -> block can drive the sampler.  The fields here are
pointwise Gaussian-endpoint flows whose exact solution is known, which
makes endpoint error attributable entirely to the sparse approximation.
"""

from __future__ import annotations

import math
import sys
from typing import Protocol, runtime_checkable

import numpy as np

from .errors import FieldContractError, ParameterError
from .grid import ActiveBlock, IndexSet, TokenGrid, full_set, gather
from .rng import UniformStream, derive_seed


@runtime_checkable
class VelocityField(Protocol):
    """Evaluator u(active tokens, t) -> active-token velocities."""

    descriptor: str

    def evaluate(self, block: ActiveBlock, active: IndexSet, t: float) -> ActiveBlock:
        ...


def gaussian_flow_velocity(x, t: float, mu, sigma1):
    """Marginal velocity of the linear path x_t = t*x1 + (1-t)*x0.

    x0 ~ N(0, 1) and x1 ~ N(mu, sigma1^2) per coordinate; then

        u(x, t) = mu + (t*sigma1^2 - (1-t)) / (t^2*sigma1^2 + (1-t)^2) * (x - t*mu)

    which is E[x1 - x0 | x_t = x].  Broadcasts over arrays and returns a
    fresh float64 array, built in one buffer updated in place.  At t=1 the
    expression is singular iff sigma1**2 is 0 in float64: the point-mass
    endpoint sigma1 = 0, or a positive sigma1 whose square underflows.
    """
    if not 0.0 <= t <= 1.0:
        raise ParameterError(f"t must lie in [0, 1], got {t}")
    a, b = t, 1.0 - t
    sig = np.asarray(sigma1, dtype=np.float64)
    s2 = sig ** 2
    denom = a * a * s2 + b * b
    singular = denom == 0.0
    if np.any(singular):
        raise ParameterError(
            f"velocity is singular at t=1: sigma1**2 is 0 in float64 "
            f"for sigma1={float(sig[singular].flat[0])!r}"
        )
    coeff = (a * s2 - b) / denom
    mu = np.asarray(mu, dtype=np.float64)
    out = np.empty(np.broadcast_shapes(np.shape(x), mu.shape, coeff.shape))
    np.multiply(mu, a, out=out)
    np.subtract(x, out, out=out)
    out *= coeff
    out += mu
    return out


class GaussianFlowField:
    """Pointwise analytic field for Gaussian endpoints N(mu, sigma1^2).

    mu is a token grid (the target image); sigma1 is a scalar or per-token
    array of target standard deviations.  sigma1 = 0 makes mu an attractor
    every trajectory reaches exactly at t=1.  sigma1**2 must be finite in
    float64, so sigma1 may not exceed about 1.3e154.
    """

    def __init__(self, mu: TokenGrid, sigma1=0.0):
        self.mu = mu
        sig = np.asarray(sigma1, dtype=np.float64)
        top = float(np.max(sig, initial=0.0))  # NaN if any entry is NaN
        if np.any(sig < 0.0) or not math.isfinite(top * top):
            raise ParameterError("sigma1 must be finite and >= 0, with a finite square")
        if sig.ndim and sig.shape != (mu.n_tokens,):
            raise ParameterError(
                f"sigma1 must be scalar or one value per token, got shape {sig.shape}"
            )
        self._target = mu.data.astype(np.float64)  # (N, d), read by every call
        # a scalar stays a float, so evaluate's coefficient is one number
        self._sigma1 = sig if sig.ndim else float(sig)
        self.descriptor = f"gaussian-flow(sigma1_mean={float(np.mean(sig)):g})"

    def evaluate(self, block: ActiveBlock, active: IndexSet, t: float) -> ActiveBlock:
        if (block.m != len(active) or block.d != self.mu.d
                or active.n_total != self.mu.n_tokens):
            raise FieldContractError("block does not match active set / field dims")
        full = len(active) == self.mu.n_tokens
        mu = self._target if full else np.take(self._target, active.indices, axis=0)
        sig = self._sigma1
        if not isinstance(sig, float):
            sig = (sig if full else sig[active.indices])[:, None]
        u = gaussian_flow_velocity(block.values, t, mu, sig)
        return ActiveBlock(block.m, block.d, u.astype(np.float32))


class ReplayField:
    """Record/replay wrapper keyed by (active indices, t).

    With an inner field it records every evaluation; without one it replays
    the tape and (when strict) refuses unseen keys.
    """

    descriptor = "replay"

    def __init__(self, inner: VelocityField | None = None, strict: bool = True):
        self.inner = inner
        self.strict = strict
        # (int64 indices bytes, t) -> values copy
        self.tape: dict[tuple[bytes, float], np.ndarray] = {}

    def evaluate(self, block: ActiveBlock, active: IndexSet, t: float) -> ActiveBlock:
        key = (active.indices.tobytes(), float(t))
        if key in self.tape:
            return ActiveBlock(block.m, block.d, self.tape[key].copy())
        if self.inner is not None:
            out = self.inner.evaluate(block, active, t)
            self.tape[key] = out.values.copy()
            return out
        if self.strict:
            raise FieldContractError(
                f"replay miss: no recording for {len(active)} tokens at t={t}"
            )
        return ActiveBlock(block.m, block.d, np.zeros((block.m, block.d)))


def make_target_image(kind: str, shape: tuple[int, int, int], params: dict | None = None) -> TokenGrid:
    """Deterministic spatially structured target grids.

    smooth-gradient: token index / (N - 1), linear ramp over [lo, hi].
    checkerboard: +1 / -1 by (row + col) parity.
    gaussian-bump: exp(-r^2 / (2 s^2)) around the center token, peak 1.
    All channels share the pattern.  lo and hi must lie in float32 range,
    and s must be large enough that r^2 / (2 s^2) stays finite.
    """
    h, w, d = shape
    params = dict(params or {})
    n = h * w
    rows = np.arange(n) // w
    cols = np.arange(n) % w
    if kind == "smooth-gradient":
        lo = float(params.pop("lo", 0.0))
        hi = float(params.pop("hi", 1.0))
        if not max(abs(lo), abs(hi)) <= float(np.finfo(np.float32).max):
            raise ParameterError(f"smooth-gradient lo and hi must lie within float32 "
                                 f"range, got lo={lo!r}, hi={hi!r}")
        ramp = np.arange(n, dtype=np.float64) / max(n - 1, 1)
        vals = lo + (hi - lo) * ramp
    elif kind == "checkerboard":
        vals = np.where((rows + cols) % 2 == 0, 1.0, -1.0)
    elif kind == "gaussian-bump":
        s = float(params.pop("s", max(min(h, w) / 4.0, 1.0)))
        cr, cc = (h - 1) // 2, (w - 1) // 2  # snap to a token so the peak is exact
        r2 = (rows - cr) ** 2 + (cols - cc) ** 2
        two_s2 = 2.0 * s * s  # 0 if s*s underflows, which the check refuses
        if not (s > 0.0 and r2.max() < two_s2 * sys.float_info.max):
            raise ParameterError(f"gaussian-bump width s must be > 0 and large enough that "
                                 f"r**2 / (2*s*s) is finite, got {s!r}")
        vals = np.exp(-r2 / two_s2)
    else:
        raise ParameterError(f"unknown target kind '{kind}'")
    if params:
        raise ParameterError(f"unused target params: {sorted(params)}")
    data = np.repeat(vals[:, None], d, axis=1).astype(np.float32)
    return TokenGrid(h, w, d, data)


def initial_noise(shape: tuple[int, int, int], seed: int) -> TokenGrid:
    """Seeded standard-normal start state y(0), full-dimensional."""
    h, w, d = shape
    stream = UniformStream(derive_seed(seed, "init"))
    data = stream.normal(h * w * d).astype(np.float32)
    return TokenGrid(h, w, d, data)


def reference_solve(
    field: VelocityField, shape: tuple[int, int, int], seed: int, n_fine_steps: int
) -> TokenGrid:
    """Dense Euler oracle: every token active, uniform timesteps.

    Uses the same seeded start state as a sampler run, so endpoints are
    directly comparable.  The last velocity evaluation happens at
    t = 1 - 1/n, never at t = 1.
    """
    if n_fine_steps < 1:
        raise ParameterError(f"n_fine_steps must be >= 1, got {n_fine_steps}")
    grid = initial_noise(shape, seed)
    everything = full_set(grid.n_tokens)
    dt = 1.0 / n_fine_steps
    for i in range(n_fine_steps):
        u = field.evaluate(gather(grid, everything), everything, i * dt)
        grid = grid.with_data(grid.data + u.values * np.float32(dt))
    return grid


def rel_l2(approx: TokenGrid, truth: TokenGrid) -> float:
    """Relative L2 error ||approx - truth|| / ||truth|| of two grids."""
    diff = approx.data.astype(np.float64) - truth.data.astype(np.float64)
    return float(np.linalg.norm(diff) / max(np.linalg.norm(truth.data), 1e-30))
