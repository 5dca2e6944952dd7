"""Reference Caratheodory reduction: one null vector per step, the pivot
column deleted from a fresh copy of the basis.

This is the elimination `opm._caratheodory` performs in place; the tests
hold the in-place version to this one bitwise.
"""

import numpy as np


def caratheodory_reference(C: np.ndarray, W: np.ndarray, rank: int) -> np.ndarray:
    V = np.linalg.svd(C)[2][rank:].T
    W = W.copy()
    while V.shape[1]:
        v = V[:, 0]
        neg = v < 0.0
        if not np.any(neg):
            V = V[:, 1:]
            continue
        ratios = np.full(W.size, np.inf)
        ratios[neg] = W[neg] / -v[neg]
        p = int(np.argmin(ratios))
        W = np.clip(W + ratios[p] * v, 0.0, None)
        W[p] = 0.0
        j = int(np.argmax(np.abs(V[p])))
        piv = V[:, j]
        V = np.delete(V, j, axis=1)
        V -= np.outer(piv, V[p] / piv[p])
        V[p] = 0.0
    return W
