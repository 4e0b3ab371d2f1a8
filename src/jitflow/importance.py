"""Importance-guided token activation.

A token matters where the velocity field is locally busy: the importance
score is the per-channel variance of the velocity inside a WINDOW x WINDOW
square (mean of squares minus square of means, from two box means by
scipy.ndimage.uniform_filter with edge-replicating padding), averaged over
channels.  Newly activated tokens at a stage transition are the
highest-scoring inactive candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ParameterError
from .grid import IndexSet, TokenGrid

WINDOW = 3  # side of the square importance window, in tokens


@dataclass(frozen=True)
class ImportanceMap:
    h_tok: int
    w_tok: int
    scores: np.ndarray  # (h_tok * w_tok,) float64, >= 0

    def __post_init__(self):
        arr = np.asarray(self.scores, dtype=np.float64).ravel()
        if arr.size != self.h_tok * self.w_tok:
            raise ParameterError("scores length does not match grid dims")
        if np.any(arr < -1e-6):
            raise ParameterError("scores must be non-negative")
        object.__setattr__(self, "scores", np.maximum(arr, 0.0))


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
    u = u - u.min(axis=(0, 1), keepdims=True)

    def box_mean(a: np.ndarray) -> np.ndarray:
        return uniform_filter(a, size=(WINDOW, WINDOW, 1), mode="nearest")

    var = box_mean(u * u) - box_mean(u) ** 2
    scores = np.maximum(var.mean(axis=2), 0.0)
    return ImportanceMap(velocity.h_tok, velocity.w_tok, scores.ravel())


def top_tokens(imap: ImportanceMap, candidates: IndexSet, count: int) -> IndexSet:
    """The `count` highest-scoring candidates; ties go to lower indices."""
    if count > len(candidates):
        raise BudgetError(
            f"requested {count} tokens from {len(candidates)} candidates"
        )
    if imap.h_tok * imap.w_tok != candidates.n_total:
        raise ParameterError("importance map does not cover the candidate grid")
    if count == 0:
        return IndexSet(candidates.n_total, np.empty(0, dtype=np.int64))
    cand = candidates.indices
    # sort by (-score, index): lexsort keys are applied last-key-primary
    order = np.lexsort((cand, -imap.scores[cand]))
    chosen = np.sort(cand[order[:count]])
    return IndexSet(candidates.n_total, chosen)
