"""Token grid state and index-set algebra.

The full latent state is an (h_tok x w_tok) grid of d-channel tokens stored
row-major: token index = row * w_tok + col.  Sparse stages operate on an
active subset of token indices; the selector S, projector P = S S^T, and
ring projector Q are realized as gather / embed / mask operations on index
sets rather than materialized matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NestingError


@dataclass(frozen=True)
class TokenGrid:
    """Full-dimensional state: n_tokens rows of d float32 channels."""

    h_tok: int
    w_tok: int
    d: int
    data: np.ndarray  # (h_tok * w_tok, d) float32

    def __post_init__(self):
        if self.h_tok < 1 or self.w_tok < 1 or self.d < 1:
            raise DimensionError(
                f"grid dims must be >= 1, got {self.h_tok}x{self.w_tok}x{self.d}"
            )
        arr = np.asarray(self.data, dtype=np.float32)
        n = self.h_tok * self.w_tok
        if arr.size != n * self.d:
            raise DimensionError(
                f"data has {arr.size} values, expected {n}*{self.d}"
            )
        arr = arr.reshape(n, self.d)
        if not np.all(np.isfinite(arr)):
            raise DimensionError("grid data contains NaN or Inf")
        object.__setattr__(self, "data", arr)

    @property
    def n_tokens(self) -> int:
        return self.h_tok * self.w_tok

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.h_tok, self.w_tok, self.d)

    def spatial(self) -> np.ndarray:
        """View of the data as (h_tok, w_tok, d)."""
        return self.data.reshape(self.h_tok, self.w_tok, self.d)

    def with_data(self, data: np.ndarray) -> "TokenGrid":
        return TokenGrid(self.h_tok, self.w_tok, self.d, data)


@dataclass(frozen=True)
class IndexSet:
    """Sorted unique token indices over a grid of n_total tokens.

    Realizes the active set Omega_k.  An empty set is representable only so
    that complement(full set) has a value; every state-touching operation
    requires at least one index, a precondition its engine callers meet,
    and empty sets are consumed solely by token selection.
    """

    n_total: int
    indices: np.ndarray = field(repr=False)  # sorted unique int64

    def __post_init__(self):
        if self.n_total < 1:
            raise DimensionError(f"n_total must be >= 1, got {self.n_total}")
        idx = np.asarray(self.indices, dtype=np.int64).ravel()
        if idx.size:
            if idx[0] < 0 or idx[-1] >= self.n_total:
                raise DimensionError(
                    f"indices out of range [0, {self.n_total})"
                )
            if np.any(np.diff(idx) <= 0):
                raise DimensionError("indices must be strictly increasing")
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return int(self.indices.size)

    def mask(self) -> np.ndarray:
        """Boolean membership mask of length n_total."""
        m = np.zeros(self.n_total, dtype=bool)
        m[self.indices] = True
        return m

    def is_subset_of(self, other: "IndexSet") -> bool:
        if self.n_total != other.n_total:
            return False
        return bool(np.all(other.mask()[self.indices]))


def full_set(n_total: int) -> IndexSet:
    return IndexSet(n_total, np.arange(n_total, dtype=np.int64))


def index_set(n_total: int, indices) -> IndexSet:
    """Build an IndexSet from an unsorted, possibly duplicated collection."""
    idx = np.unique(np.asarray(indices, dtype=np.int64))
    if idx.size == 0:
        raise DimensionError("index set must contain at least one index")
    return IndexSet(n_total, idx)


@dataclass(frozen=True)
class ActiveBlock:
    """Values of the active tokens, rows ordered by ascending source index."""

    m: int
    d: int
    values: np.ndarray  # (m, d) float32

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float32)
        if arr.size != self.m * self.d:
            raise DimensionError(
                f"block has {arr.size} values, expected {self.m}*{self.d}"
            )
        object.__setattr__(self, "values", arr.reshape(self.m, self.d))


def gather(grid: TokenGrid, active: IndexSet) -> ActiveBlock:
    """Extract active-token rows: S^T y."""
    if active.n_total != grid.n_tokens:
        raise DimensionError(
            f"index set over {active.n_total} tokens, grid has {grid.n_tokens}"
        )
    return ActiveBlock(len(active), grid.d, np.take(grid.data, active.indices, axis=0))


def embed(block: ActiveBlock, active: IndexSet, shape: tuple[int, int, int]) -> TokenGrid:
    """Scatter block rows to their token positions, zeros elsewhere: S u."""
    h, w, d = shape
    if active.n_total != h * w:
        raise DimensionError(
            f"index set over {active.n_total} tokens, shape gives {h * w}"
        )
    if block.m != len(active) or block.d != d:
        raise DimensionError(
            f"block {block.m}x{block.d} does not match set size {len(active)} / d={d}"
        )
    out = np.zeros((h * w, d), dtype=np.float32)
    out[active.indices] = block.values
    return TokenGrid(h, w, d, out)


def apply_mask(grid: TokenGrid, active: IndexSet) -> TokenGrid:
    """Orthogonal projection onto the active subspace: P y = S S^T y.

    Active tokens are preserved bitwise; inactive tokens become zero.
    """
    if active.n_total != grid.n_tokens:
        raise DimensionError(
            f"index set over {active.n_total} tokens, grid has {grid.n_tokens}"
        )
    out = np.zeros_like(grid.data)
    out[active.indices] = grid.data[active.indices]
    return grid.with_data(out)


def ring(prev: IndexSet, cur: IndexSet) -> IndexSet:
    """Newly-activated indices R = prev \\ cur; requires cur strictly inside prev."""
    if prev.n_total != cur.n_total:
        raise NestingError(
            f"sets over different totals: {prev.n_total} vs {cur.n_total}"
        )
    if not cur.is_subset_of(prev):
        raise NestingError("cur is not a subset of prev")
    diff = np.setdiff1d(prev.indices, cur.indices, assume_unique=True)
    if diff.size == 0:
        raise NestingError("cur equals prev; ring would be empty")
    return IndexSet(prev.n_total, diff)


def complement(active: IndexSet) -> IndexSet:
    """Sorted indices outside the set.  May be empty (full-set input)."""
    return IndexSet(active.n_total, np.flatnonzero(~active.mask()))

