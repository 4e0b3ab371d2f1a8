"""Unified interpolation from sparse anchors to the full grid.

The engine lifts one thing at a stage transition: the anchors' clean
prediction, which becomes the structural prior of the newly activated
tokens.  The pipeline is

    1. nearest-neighbor fill from the anchors,
    2. a density-matched separable Gaussian blur,
    3. masked composition that restores anchor values bitwise.

The nearest-neighbor fill reads an owner map: for every token, the index of
its nearest anchor by Euclidean distance between (row, col) grid positions,
ties going to the lowest anchor index.  The map is exact, and its time and
memory grow about linearly with N.  It comes from one call of the exact
Euclidean distance transform of Maurer et al. (IEEE TPAMI 2003, as
scipy.ndimage.distance_transform_edt) on the transposed anchor mask: the
transform's last 1-D pass keeps the lower coordinate among equal distances,
and with rows on that last axis its pick among equidistant anchors is the
lowest row-major index.  Scipy does not document that tie rule; tests
against the brute-force tests/oracles.brute_owner_map pin it.  The same
call returns each token's distance to its nearest anchor, which the stage
transition ranks its candidates by.  Map and distance depend only on the
grid size and the active set, so they are memoized per (h, w, indices) in a
small LRU cache: a staged run computes one transform per sparse stage, read
first by the ring choice and then by the prediction lift in dmf_target.

The blur is scipy.ndimage.gaussian_filter over the two grid axes with
edge-replicating ("nearest") padding.  Its scale tracks anchor density:
with ratio rho = m / N the mean anchor spacing is L = rho^(-1/2) tokens,
sigma = 0.4 L, and the kernel length is max(3, 2*floor(1.5*sigma) + 1) so
it stays odd and roughly spans 3 sigma.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grid import ActiveBlock, IndexSet, TokenGrid


@dataclass(frozen=True)
class BlurSpec:
    sigma: float
    kernel_size: int


def blur_params(m: int, n: int) -> BlurSpec:
    """Blur scale for 1 <= m <= n anchors among n tokens."""
    rho = m / n
    sigma = 0.4 / math.sqrt(rho)
    kernel_size = max(3, 2 * math.floor(1.5 * sigma) + 1)
    return BlurSpec(sigma, kernel_size)


def owner_map(active: IndexSet, h: int, w: int) -> np.ndarray:
    """Index into active.indices of each token's nearest anchor.

    Distance is Euclidean between (row, col) grid coordinates; ties go to
    the anchor with the lower row-major index.  Returns a read-only int64
    array of length h * w, shared between calls with the same set.
    Precondition: active holds at least one index over h * w tokens.
    """
    return _cached_owner_map(h, w, active.indices.tobytes())[0]


def anchor_distance(active: IndexSet, h: int, w: int) -> np.ndarray:
    """Euclidean distance from each token to its nearest anchor, in tokens.

    Each entry is the float64 square root of an integer squared distance, 0
    at the anchors.  Returns a read-only array of length h * w, shared
    between calls with the same set and computed with its owner map.
    Precondition: as for owner_map.
    """
    return _cached_owner_map(h, w, active.indices.tobytes())[1]


@functools.lru_cache(maxsize=8)
def _cached_owner_map(h: int, w: int, key: bytes) -> tuple[np.ndarray, np.ndarray]:
    from scipy.ndimage import distance_transform_edt

    anchors = np.frombuffer(key, dtype=np.int64)
    n, m = h * w, len(anchors)
    rank = np.full(n, m, dtype=np.int64)  # anchor index of each token, m elsewhere
    rank[anchors] = np.arange(m)
    # Transposed so that scipy's last 1-D pass runs along rows: among equidistant
    # anchors it keeps the lowest (row, col), which is the lowest anchor index.
    dist, nearest = distance_transform_edt(
        (rank == m).reshape(h, w).T, return_distances=True, return_indices=True
    )
    cols, rows = nearest.astype(np.int64).transpose(0, 2, 1)
    owner = rank[rows * w + cols].ravel()
    dist = dist.T.ravel()  # a copy in (row, col) order
    owner.setflags(write=False)
    dist.setflags(write=False)
    return owner, dist


def nearest_fill(block: ActiveBlock, active: IndexSet, shape: tuple[int, int, int]) -> TokenGrid:
    """Assign every token the value of its nearest anchor (see owner_map)."""
    h, w, d = shape
    return TokenGrid(h, w, d, np.take(block.values, owner_map(active, h, w), axis=0))


def gaussian_blur(grid: TokenGrid, spec: BlurSpec) -> TokenGrid:
    """Per-channel separable Gaussian blur with replicate padding."""
    from scipy.ndimage import gaussian_filter

    h, w, d = grid.shape
    r = spec.kernel_size // 2
    # Channel-first, so each filtered line is contiguous: about twice as fast
    # as filtering the (h, w, d) layout, and bitwise equal, since the same two
    # 1-D passes (rows, then columns) see the same lines in either layout.
    x = np.ascontiguousarray(grid.data.T, dtype=np.float64).reshape(d, h, w)
    gaussian_filter(x, (0.0, spec.sigma, spec.sigma), mode="nearest", radius=(0, r, r), output=x)
    return grid.with_data(x.reshape(d, h * w).T.astype(np.float32, order="C"))


def lift(block: ActiveBlock, active: IndexSet, shape: tuple[int, int, int]) -> TokenGrid:
    """Full-grid extension of anchor values with bitwise anchor preservation.

    Composition M * Z_nn + (1 - M) * Z_blur, where M marks anchors.  The
    anchor rows are written by direct scatter of the block values, so
    gather(lift(b, set), set) == b holds bitwise; for the full set the
    result is the block itself.  The engine lifts one sparse set per
    transition: the anchors' clean prediction in dmf_target.
    Precondition: active is a non-empty set over h * w tokens, and block
    holds its len(active) x d rows.
    """
    h, w, d = shape
    z_nn = nearest_fill(block, active, shape)
    z_blur = gaussian_blur(z_nn, blur_params(len(active), h * w))
    # the blur's output is fresh, so compose on it in place; the block's
    # values are finite, because nearest_fill's grid holds every one of them
    z_blur.data[active.indices] = block.values
    return z_blur
