"""A seeded numpy self-attention + MLP velocity field with a real compute cost.

The analytic Gaussian fields cost almost nothing, so on them wall time
measures only the sampler's own overhead.  This field has the cost shape of
one DiT block (Peebles & Xie 2023): attention over the m active tokens costs
about c_attn * m^2 and the projections and MLP about c_lin * m, which is the
shape `jitflow.cost.CostModel` assumes.  `cost_model()` derives both
coefficients from the field's FLOP counts, so the modeled speedup of a run
is a prediction for this field rather than the linear default.
"""

from __future__ import annotations

import numpy as np

from jitflow import cost, grid


def _layer_norm(x: np.ndarray) -> np.ndarray:
    """Per-token zero mean, unit variance.  Pre-norm keeps attention scores
    and outputs bounded however large the state grows, so the softmax never
    drops into slow subnormal floats and timing does not depend on the data."""
    x = x - x.mean(axis=1, keepdims=True)
    return x / np.sqrt((x * x).mean(axis=1, keepdims=True) + 1e-5)


class AttentionField:
    """One pre-norm single-head self-attention block plus a ReLU MLP, float32.

    Token features are the active block's channels projected to `width`,
    plus a learned-style position embedding per token index and a time
    embedding; the output projects back to the block's channels.  Weights
    come from `numpy.random.default_rng(seed)`, so the field is deterministic.
    """

    descriptor = "attention-mlp"

    def __init__(self, n_tokens: int, d: int, width: int, seed: int):
        rng = np.random.default_rng(seed)

        def weight(rows: int, cols: int) -> np.ndarray:
            return (rng.standard_normal((rows, cols)) / np.sqrt(rows)).astype(np.float32)

        self.d, self.width = d, width
        self.w_in = weight(d, width)
        self.pos = (0.5 * rng.standard_normal((n_tokens, width))).astype(np.float32)
        self.w_time = weight(1, width)
        self.wq, self.wk, self.wv, self.wo = (weight(width, width) for _ in range(4))
        self.w_up, self.w_down = weight(width, 4 * width), weight(4 * width, width)
        self.w_out = weight(width, d)
        self.scale = np.float32(1.0 / np.sqrt(width))

    def evaluate(self, block, active, t: float):
        h = block.values @ self.w_in + self.pos[active.indices] + np.float32(t) * self.w_time
        a = _layer_norm(h)
        q, k, v = a @ self.wq, a @ self.wk, a @ self.wv
        scores = (q @ k.T) * self.scale
        scores -= scores.max(axis=1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=1, keepdims=True)
        h = h + (scores @ v) @ self.wo
        h = h + np.maximum(_layer_norm(h) @ self.w_up, 0.0) @ self.w_down
        return grid.ActiveBlock(block.m, block.d, _layer_norm(h) @ self.w_out)

    def cost_model(self) -> cost.CostModel:
        """FLOPs per evaluation as c_attn * m^2 + c_lin * m.

        Attention: q k^T and (scores) v are 2 * m^2 * width flops each, and
        the softmax makes five passes (max, subtract, exp, sum, divide) over
        the m x m scores.  Linear: input and output projections
        (2 * 2 * d * width), q/k/v/o (4 * 2 * width^2), the MLP
        (2 * 2 * width * 4 * width), and 24 elementwise passes over the
        m x width features (embeddings, residuals, ReLU, three layer norms).
        """
        w, d = self.width, self.d
        return cost.CostModel(c_attn=4.0 * w + 5.0, c_lin=24.0 * w * w + 4.0 * d * w + 24.0 * w)
