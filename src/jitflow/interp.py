"""Unified interpolation from sparse anchors to the full grid.

The engine lifts one thing at a stage transition: the anchors' clean
prediction, which becomes the structural prior of the newly activated
tokens.  It reads that lift only at the ring rows, through lift_operator:
the pipeline below restricted to those rows, which a sampling plan builds
once per boundary as the owner of every token each ring row's blur reads.
Applied to the anchors' values it sums the same float64 terms as the
blur, in the same order.  lift itself is the reference the operator is
tested against.  The pipeline is

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
call returns each token's distance to its nearest anchor, which a
sampling plan ranks the ring candidates by (nearest_anchor returns both).
Nothing here is cached: the plan that calls it is.

The blur is scipy.ndimage.gaussian_filter over the two grid axes with
edge-replicating ("nearest") padding.  Its scale tracks anchor density:
with ratio rho = m / N the mean anchor spacing is L = rho^(-1/2) tokens,
sigma = 0.4 L, and the kernel length is max(3, 2*floor(1.5*sigma) + 1) so
it stays odd and roughly spans 3 sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import ActiveBlock, IndexSet, TokenGrid

# a RingLift is built and applied this many blur taps at a time
OPERATOR_CHUNK = 1 << 13


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


def nearest_anchor(active: IndexSet, h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """(owner map, anchor distance) of an active set, from one transform.

    The owner map is the int64 index into active.indices of each token's
    nearest anchor: distance is Euclidean between (row, col) grid
    coordinates, and ties go to the anchor with the lower row-major index.
    The distance is each token's float64 Euclidean distance to that anchor,
    in tokens: the square root of an integer squared distance, 0 at the
    anchors.  Both have length h * w and are fresh arrays.
    Precondition: active holds at least one index over h * w tokens.
    """
    from scipy.ndimage import distance_transform_edt

    n, m = h * w, len(active)
    rank = np.full(n, m, dtype=np.int64)  # anchor index of each token, m elsewhere
    rank[active.indices] = np.arange(m)
    # Transposed so that scipy's last 1-D pass runs along rows: among equidistant
    # anchors it keeps the lowest (row, col), which is the lowest anchor index.
    dist, nearest = distance_transform_edt(
        (rank == m).reshape(h, w).T, return_distances=True, return_indices=True
    )
    cols, rows = nearest.transpose(0, 2, 1)  # int32 from scipy, so h * w < 2**31 here
    flat = rows * w
    flat += cols
    return rank[flat].ravel(), dist.T.ravel()


def nearest_fill(block: ActiveBlock, active: IndexSet, shape: tuple[int, int, int]) -> TokenGrid:
    """Assign every token the value of its nearest anchor (see nearest_anchor)."""
    h, w, d = shape
    return TokenGrid(h, w, d, np.take(block.values, nearest_anchor(active, h, w)[0], axis=0))


def gaussian_blur(grid: TokenGrid, spec: BlurSpec) -> TokenGrid:
    """Per-channel separable Gaussian blur with replicate padding."""
    from scipy.ndimage import gaussian_filter

    r = spec.kernel_size // 2
    x = grid.spatial().astype(np.float64)
    gaussian_filter(x, (spec.sigma, spec.sigma, 0.0), mode="nearest", radius=(r, r, 0), output=x)
    return grid.with_data(x.astype(np.float32))


def lift(block: ActiveBlock, active: IndexSet, shape: tuple[int, int, int]) -> TokenGrid:
    """Full-grid extension of anchor values with bitwise anchor preservation.

    Composition M * Z_nn + (1 - M) * Z_blur, where M marks anchors.  The
    anchor rows are written by direct scatter of the block values, so
    gather(lift(b, set), set) == b holds bitwise; for the full set the
    result is the block itself.  A run reads it only at ring rows, through
    lift_operator; dmf_target and the tests call it as their reference.
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


@dataclass(frozen=True)
class RingLift:
    """lift read at a fixed set of rows outside the anchors (lift_operator).

    taps holds lift's 1-D blur weights from the centre out; owners[a, b, k]
    is the anchor index of the token at offset (a - r, b - r) of row k,
    its coordinates clipped to the grid, r = len(taps) - 1.
    """

    taps: np.ndarray  # float64, length r + 1
    owners: np.ndarray  # int32, shape (2r + 1, 2r + 1, len(rows))

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """gather(lift(block, active, shape), rows).values for block.values.

        The two 1-D passes are scipy's correlation sums for a symmetric
        kernel, in float64 and in scipy's order (centre tap first, then
        mirrored pairs from the outermost in), over the nearest-fill values
        the owners name: bitwise the values lift computes at these rows,
        wherever scipy's build rounds each multiply and add (one that fuses
        them can differ in the last float64 bit).  Works OPERATOR_CHUNK
        gathered taps at a time.
        """
        x = np.asarray(values, dtype=np.float64)
        r = len(self.taps) - 1
        k_rows = self.owners.shape[2]
        out = np.empty((k_rows, x.shape[1]), dtype=np.float32)
        step = max(1, OPERATOR_CHUNK // (2 * r + 1) ** 2)
        for k in range(0, k_rows, step):
            z = np.take(x, self.owners[:, :, k:k + step], axis=0)
            u = z[r] * self.taps[0]  # the vertical pass, at each column offset
            for a in range(r, 0, -1):
                u += (z[r - a] + z[r + a]) * self.taps[a]
            phi = u[r] * self.taps[0]  # then the horizontal one
            for b in range(r, 0, -1):
                phi += (u[r - b] + u[r + b]) * self.taps[b]
            out[k:k + step] = phi
        return out


def lift_operator(owner: np.ndarray, m: int, rows: IndexSet, h: int, w: int) -> RingLift:
    """lift of an m-anchor set at rows outside it, as a RingLift.

    owner is the set's owner map (nearest_anchor).  The RingLift holds the
    owner of every token each row's blur reads, so applying it reads no
    full-grid array.  Built OPERATOR_CHUNK taps at a time.
    Precondition: rows is disjoint from the anchors, over h * w tokens.
    """
    from scipy.ndimage import gaussian_filter1d

    spec = blur_params(m, h * w)
    r = spec.kernel_size // 2
    offsets = np.arange(-r, r + 1)
    # lift's own weights: a unit impulse through the same 1-D filter
    taps = gaussian_filter1d((offsets == 0).astype(np.float64), spec.sigma, mode="constant",
                             radius=r)[r:].copy()
    owners = np.empty((2 * r + 1, 2 * r + 1, len(rows)), dtype=np.int32)
    step = max(1, OPERATOR_CHUNK // (2 * r + 1) ** 2)
    for k in range(0, len(rows), step):
        i, j = np.divmod(rows.indices[k:k + step], w)
        src_rows = np.clip(i + offsets[:, None], 0, h - 1) * w
        src_cols = np.clip(j + offsets[:, None], 0, w - 1)
        owners[:, :, k:k + step] = owner[src_rows[:, None, :] + src_cols[None, :, :]]
    return RingLift(taps, owners)
