"""Per-token score maps and top-token selection.

top_tokens picks the highest-scoring candidates of a score map; a stage
transition uses it to pick the farthest tokens from the anchors.

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

from .grid import IndexSet, TokenGrid

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


def top_tokens(
    imap: ImportanceMap, candidates: IndexSet, count: int, tie_key: np.ndarray | None = None
) -> IndexSet:
    """The `count` <= len(candidates) best candidates.

    Ties go to the lower tie_key entry, which must be distinct per token,
    or without a key to the lower index.
    """
    if count == 0:
        return IndexSet(candidates.n_total, np.empty(0, dtype=np.int64))
    cand = candidates.indices
    score = imap.scores[cand]
    # every candidate above the count-th highest score is chosen, and the
    # first candidates tied with it fill the rest; a partition finds that
    # score in O(len) where a stable sort takes ~15x longer
    cut = np.partition(score, len(cand) - count)[len(cand) - count]
    chosen = score > cut
    tied = np.flatnonzero(score == cut)
    need = count - np.count_nonzero(chosen)  # >= 1: the cut itself is chosen
    if tie_key is not None and need < len(tied):
        tied = tied[np.argpartition(tie_key[cand[tied]], need - 1)]
    chosen[tied[:need]] = True
    return IndexSet(candidates.n_total, cand[chosen])
