"""Rank-preserving construction of per-record calibration targets.

Given a confidence vector and a desired top probability q, the target keeps
the top class at exactly q and squeezes the remaining entries through a
saturating tanh followed by an affine rescale, so the tail keeps its ordering
and the whole vector stays on the simplex. The tail map is

    c' = alpha * tanh(gamma * c) + beta

with gamma = ln(3) / (max tail * (1 - q)), so the largest tail entry lands
at tanh(ln(3) / (1 - q)), and (alpha, beta) solving the mass constraint
alpha * sum(tanh(gamma * tail)) + (k - 1) * beta = 1 - q. The default takes
alpha = beta; where that would lift the largest tail entry to the pinned
top, alpha is rescued at the midpoint of the interval that keeps the tail
strictly below it. ``build_target_matrix`` is the one implementation.
"""

from __future__ import annotations

import math

import numpy as np

from .core import CalibrationError, _row_argmax, _row_max, _row_sum

LN3 = math.log(3.0)


class BadQ(CalibrationError):
    pass


def build_target_matrix(
    conf: np.ndarray, q: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized target construction for a batch of rows.

    Returns (targets, top_index, rank_preserved). Rows whose tail is all zero
    (one-hot sources) get the remaining mass split uniformly over the tail.
    """
    out, top = _target_rows(conf, q)
    conf = np.asarray(conf, dtype=float)
    return out, top, _order_isotonic(conf, out, top, np.arange(conf.shape[0]))


def _target_rows(conf: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``build_target_matrix``'s (targets, top_index), without the rank flag."""
    conf = np.asarray(conf, dtype=float)
    q = np.asarray(q, dtype=float)
    if conf.ndim != 2 or conf.shape[1] < 2:
        raise BadQ("conf must be an (n, k>=2) matrix")
    if q.shape != (conf.shape[0],):
        raise BadQ("q must align with the rows of conf")
    if not ((q > 0.0) & (q < 1.0)).all():
        raise BadQ("top probabilities must lie strictly inside (0, 1)")

    n, k = conf.shape
    top = _row_argmax(conf)
    # Each row's largest finite entry off its top, 0.0 where it has none, a
    # class column at a time.
    max_tail = None
    for j in range(k):
        col = np.where((top != j) & np.isfinite(conf[:, j]), conf[:, j], 0.0)
        max_tail = col if max_tail is None else np.maximum(max_tail, col, out=max_tail)

    degenerate = max_tail <= 0.0
    if degenerate.any():
        ok = ~degenerate
        out = np.empty_like(conf)
        if ok.any():
            out[ok] = _tanh_tail(conf[ok], q[ok], max_tail[ok], top[ok])
        out[degenerate] = (1.0 - q[degenerate, None]) / (k - 1)
    else:
        out = _tanh_tail(conf, q, max_tail, top)
    out[np.arange(n), top] = q
    return out, top


def _tanh_tail(
    conf: np.ndarray, q: np.ndarray, max_tail: np.ndarray, top: np.ndarray
) -> np.ndarray:
    """The mapped rows ``alpha * tanh(gamma * conf) + beta`` of rows with a
    positive tail max, in one new (n, k) array; the top entries are left for
    the caller to pin. Every step past the tanh is a class-column pass or
    works on (n,) arrays."""
    k = conf.shape[1]
    gamma = LN3 / (max_tail * (1.0 - q))
    t = np.empty(conf.shape)
    for j in range(k):
        np.multiply(gamma, conf[:, j], out=t[:, j])
    np.tanh(t, out=t)
    t[np.arange(t.shape[0]), top] = 0.0
    tanh_sum = _row_sum(t)
    tanh_max = _row_max(t)
    alpha = (1.0 - q) / (tanh_sum + (k - 1))
    # The simplified coefficients can push the largest mapped tail entry to
    # or above the pinned top when q is small. The mass constraint leaves
    # alpha free (beta absorbs the slack), and any alpha below the critical
    # value restores strict tail < top; take the midpoint of the feasible
    # interval. Only possible when q exceeds the uniform tail level 1/k.
    broken = alpha * (tanh_max + 1.0) >= q
    slope = tanh_max - tanh_sum / (k - 1)
    headroom = q * (k - 1) - (1.0 - q)
    fixable = broken & (slope > 0.0) & (headroom > 0.0)
    if fixable.any():
        alpha_max = headroom[fixable] / (slope[fixable] * (k - 1))
        alpha[fixable] = np.minimum(0.5 * alpha_max, alpha[fixable])
    beta = (1.0 - q - alpha * tanh_sum) / (k - 1)
    for j in range(k):
        np.multiply(alpha, t[:, j], out=t[:, j])
        t[:, j] += beta
    return t


def _order_isotonic(conf: np.ndarray, out: np.ndarray, top, rows) -> np.ndarray:
    """True per row when the output never inverts the input ordering.

    Output ties where the inputs differ are allowed: for tops near 1 the tanh
    saturates at float resolution and distinct tail entries can map to equal
    outputs, which flattens but never reorders. Where the top input is the
    strict maximum, the pinned top must remain the strict maximum too.
    """
    # Sort by (input desc, output desc): any strict inversion then shows up as
    # an increase somewhere along the output sequence.
    by_out = np.argsort(-out, axis=1, kind="stable")
    conf_perm = np.take_along_axis(conf, by_out, axis=1)
    by_conf = np.argsort(-conf_perm, axis=1, kind="stable")
    order = np.take_along_axis(by_out, by_conf, axis=1)
    out_sorted = np.take_along_axis(out, order, axis=1)
    no_inversion = (np.diff(out_sorted, axis=1) <= 0.0).all(axis=1)

    masked = conf.copy()
    masked[rows, top] = -np.inf
    strict_top_in = conf[rows, top] > _row_max(masked)
    masked_out = out.copy()
    masked_out[rows, top] = -np.inf
    strict_top_out = out[rows, top] > _row_max(masked_out)
    return no_inversion & (~strict_top_in | strict_top_out)
