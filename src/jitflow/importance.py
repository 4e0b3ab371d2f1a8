"""Per-token score maps.

An ImportanceMap holds one score per token of a grid; a transition record
carries its anchor distances as one, and write_pgm draws one.  The tokens
a run activates are ranked elsewhere, by schedule.dither_first.

importance_map is a velocity-based score the library keeps: a token
matters where the velocity field is locally busy, so its score is the
per-channel variance of the velocity inside a WINDOW x WINDOW square (mean
of squares minus square of means, from two box means by
scipy.ndimage.uniform_filter with edge-replicating padding), averaged over
channels.  The sampler does not call it: ranking by importance showed no
fidelity gain over ranking by anchor distance, and it needs the velocity
lifted to the full grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import TokenGrid

WINDOW = 3  # side of the square importance window, in tokens


@dataclass(frozen=True)
class ImportanceMap:
    """Scores of the h_tok x w_tok tokens in row-major order."""

    h_tok: int
    w_tok: int
    scores: np.ndarray  # (h_tok * w_tok,) float64, >= 0


def importance_map(velocity: TokenGrid) -> ImportanceMap:
    """Windowed velocity variance per token, averaged over channels.

    Box window with replicate padding; negatives from float cancellation
    clamp to zero.
    """
    from scipy.ndimage import uniform_filter

    u = velocity.spatial().astype(np.float64)
    # variance is shift-invariant; anchoring each channel at its minimum
    # keeps the two-filter form well conditioned, makes constant fields
    # score exactly zero, and leaves min-zero fields bit-identical
    u -= u.min(axis=(0, 1))

    def box_mean(a: np.ndarray) -> np.ndarray:
        return uniform_filter(a, size=(WINDOW, WINDOW, 1), mode="nearest", output=a)

    var = box_mean(u * u)
    mean = box_mean(u)  # u is spent: its box mean overwrites it
    mean *= mean
    var -= mean
    scores = np.maximum(var.mean(axis=2), 0.0)
    return ImportanceMap(velocity.h_tok, velocity.w_tok, scores.ravel())

