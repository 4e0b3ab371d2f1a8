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
        if not np.all(arr >= -1e-6):  # NaN fails too: top_tokens cannot rank it
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
    # score exactly zero, and leaves min-zero fields bit-identical.  The
    # minimum is exact in any order, so it is taken along contiguous rows of
    # a (d, n) copy: a strided reduction over axes (0, 1) is ~10x slower.
    u -= np.ascontiguousarray(velocity.data.T).min(axis=1)

    def box_mean(a: np.ndarray) -> np.ndarray:
        return uniform_filter(a, size=(WINDOW, WINDOW, 1), mode="nearest", output=a)

    var = box_mean(u * u)
    mean = box_mean(u)  # u is spent: its box mean overwrites it
    mean *= mean
    var -= mean
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
    score = imap.scores[cand]
    # every candidate above the count-th highest score is chosen, and the
    # lowest-index candidates tied with it fill the rest; a partition finds
    # that score in O(len) where a stable sort takes ~15x longer
    cut = np.partition(score, len(cand) - count)[len(cand) - count]
    chosen = score > cut
    chosen[np.flatnonzero(score == cut)[:count - np.count_nonzero(chosen)]] = True
    return IndexSet(candidates.n_total, cand[chosen])
