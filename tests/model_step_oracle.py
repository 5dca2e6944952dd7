"""Exact minimizer of a Newton step's quadratic model, by enumerating active sets.

The model is -g.d + d^T H d / 2 over {w0 + d >= 0, sum(d) = 0}, given as the
bordered system [[H, 1], [1^T, 0]] [d; lam] = [g; 0] that `opm._model_step`
takes.  For every set F of free nodes the others are held at zero weight
(d_j = -w0_j) and the equality-constrained minimizer on F is solved
directly; the feasible one with the lowest model value is the minimizer of
a strictly convex model.  This costs 2^s solves, so it serves small s only.
"""

import itertools

import numpy as np


def model_value(kkt: np.ndarray, rhs: np.ndarray, d: np.ndarray) -> float:
    s = d.size
    return float(-rhs[:s] @ d + 0.5 * d @ kkt[:s, :s] @ d)


def exact_model_minimizer(kkt: np.ndarray, rhs: np.ndarray, w0: np.ndarray) -> np.ndarray:
    s = w0.size
    H, g = kkt[:s, :s], rhs[:s]
    best, best_value = None, np.inf
    for r in range(1, s + 1):
        for F in map(list, itertools.combinations(range(s), r)):
            fixed = np.setdiff1d(np.arange(s), F)
            A = np.zeros((r + 1, r + 1))
            A[:r, :r] = H[np.ix_(F, F)]
            A[:r, r] = A[r, :r] = 1.0
            b = np.append(g[F] + H[np.ix_(F, fixed)] @ w0[fixed], w0[fixed].sum())
            d = -w0.copy()
            d[F] = np.linalg.solve(A, b)[:r]
            if np.all(w0 + d >= -1e-14):
                value = model_value(kkt, rhs, d)
                if value < best_value:
                    best, best_value = d, value
    return best
