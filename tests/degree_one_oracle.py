"""Exhaustive degree-1 oracle shared by the solver tests.

At degree 1 the moment matrix is 2x2, so B_1 has a closed form.  With
a = sum(w), b = sum(w x) and d = sum(w |x|^2),

    B_1(w, z0) = (d - 2 Re(conj(b) z0) + a |z0|^2) / (a d - |b|^2).

`exhaustive_min` evaluates it on every weight vector whose entries are
multiples of 1/steps, for several node sets at once.
"""

import numpy as np


def weight_grid(k: int, steps: int) -> np.ndarray:
    """Integer compositions of `steps` into k parts, one row each."""
    parts = np.zeros((1, 0), dtype=np.uint8)
    left = np.array([steps], dtype=np.int32)
    for _ in range(k - 1):
        reps = left + 1
        row = np.repeat(np.arange(left.size, dtype=np.int32), reps)
        first = np.repeat(np.cumsum(reps, dtype=np.int32) - reps, reps)
        part = np.arange(row.size, dtype=np.int32) - first  # 0..left for each row
        parts = np.column_stack([parts[row], part.astype(np.uint8)])
        left = left[row] - part
    return np.column_stack([parts, left.astype(np.uint8)])


def exhaustive_min(nodes: np.ndarray, z0: np.ndarray, steps: int, chunk: int = 50_000) -> np.ndarray:
    """Min of B_1 over the weight grid, per instance.

    `nodes` is (instances, k) and `z0` is (instances,).  Weight vectors on a
    single node (a d - |b|^2 <= 1e-15) are skipped.  Returns one minimum per
    instance, computed in one pass over the grid.
    """
    nodes = np.atleast_2d(nodes)
    z0 = np.atleast_1d(z0)
    counts = weight_grid(nodes.shape[1], steps)
    feats = np.hstack([nodes.real.T, nodes.imag.T, (np.abs(nodes) ** 2).T])
    r = nodes.shape[0]
    best = np.full(r, np.inf)
    for lo in range(0, len(counts), chunk):
        W = counts[lo : lo + chunk] / steps
        a = W.sum(axis=1)[:, None]
        P = W @ feats
        br, bi, d = P[:, :r], P[:, r : 2 * r], P[:, 2 * r :]
        det = a * d - br * br - bi * bi
        num = d - 2.0 * (br * z0.real + bi * z0.imag) + a * np.abs(z0) ** 2
        vals = np.divide(num, det, out=np.full_like(det, np.inf), where=det > 1e-15)
        best = np.minimum(best, vals.min(axis=0))
    return best
