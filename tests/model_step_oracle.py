"""Exact minimizer of a Newton step's model, by enumerating supports.

The model is ||D v - t||^2 over the weights v >= 0 of unit sum: the point
of conv{D_j} nearest t, which `opm._nearest_point` finds.  For every set F
of nodes the affine least squares min ||D_F v_F - t|| subject to
sum(v_F) = 1 is solved directly (by lstsq on the differences to its
first node, so a rank-deficient D_F is fine); the feasible one with the
lowest value is the minimizer, since the minimizer is the affine one of
its own affinely independent support.  v
itself need not be unique when rank(D) < s, so callers compare D v and the
value.  This costs 2^s solves, so it serves small s only.
"""

import itertools

import numpy as np


def model_value(D: np.ndarray, t: np.ndarray, v: np.ndarray) -> float:
    r = D @ v - t
    return float(r @ r)


def exact_model_minimizer(D: np.ndarray, t: np.ndarray) -> np.ndarray:
    s = D.shape[1]
    best, best_value = None, np.inf
    for size in range(1, s + 1):
        for F in map(list, itertools.combinations(range(s), size)):
            A = D[:, F[1:]] - D[:, F[:1]]  # directions of the affine hull, from its first node
            beta = np.linalg.lstsq(A, t - D[:, F[0]], rcond=None)[0]
            vF = np.append(1.0 - beta.sum(), beta)
            if np.all(vF >= -1e-14):
                v = np.zeros(s)
                v[F] = np.maximum(vF, 0.0)
                value = model_value(D, t, v)
                if value < best_value:
                    best, best_value = v, value
    return best
