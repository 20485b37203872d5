"""Per-view probabilistic models, AUC-weighted ensembling, and the metric
report used to compare them.

The builtin model is a deliberately plain multinomial logistic regression:
zero-initialized, full-batch L-BFGS with a backtracking line search on the
exact penalized cross-entropy, features standardized with training
statistics. It exists to make the pipeline self-contained; externally
produced probability matrices can be imported instead. An ensemble reads
only its members' probability matrices, so both kinds of member combine the
same way.

All information quantities (log-loss, row entropies) are in bits.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, DataError
from .evalstats import midranks

__all__ = [
    "ProbModel",
    "MetricReport",
    "train_builtin",
    "predict_proba",
    "normalized_weights",
    "ensemble_predict",
    "metrics",
]

_PROB_CLAMP = 1e-15
# L-BFGS: the curvature pairs a direction uses, and the Armijo line
# search's sufficient-decrease constant and halvings of the unit step
_HISTORY = 10
_ARMIJO = 1e-4
_HALVINGS = 4


@dataclass
class ProbModel:
    """The builtin model, fitted to the columns it was trained on."""

    weights: np.ndarray  # (1 + features, classes); row 0 is bias
    mean: np.ndarray
    scale: np.ndarray
    iterations: int
    final_loss: float  # training log-loss in bits, penalty excluded
    evaluations: int  # points where the loss was evaluated, one logits product each
    fallbacks: int  # line searches that ended in the gradient step


@dataclass
class MetricReport:
    f1_micro: float
    auc: float
    log_loss: float
    mec: float | None
    mew: float | None

    def to_dict(self) -> dict:
        return asdict(self)


def _row_sum(e: np.ndarray) -> np.ndarray:
    """``e.sum(axis=1)`` bit for bit, from whole-column adds made in the
    order of numpy's ``pairwise_sum`` over each row."""
    k = e.shape[1]
    if k > 128:  # two halves, split at a multiple of 8
        half = k // 2 - (k // 2) % 8
        return _row_sum(e[:, :half]) + _row_sum(e[:, half:])
    if k < 8:  # left to right
        s = e[:, 0].copy()
        for j in range(1, k):
            s += e[:, j]
        return s
    # eight accumulators over the whole blocks of 8, combined as
    # ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the leftover columns
    whole = k - k % 8
    r = [e[:, j].copy() for j in range(8)]
    for i in range(8, whole, 8):
        for j in range(8):
            r[j] += e[:, i + j]
    for a, b in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4)):
        r[a] += r[b]
    for j in range(whole, k):
        r[0] += e[:, j]
    return r[0]


def _subtract_row_max(z: np.ndarray) -> None:
    """``z -= z.max(axis=1, keepdims=True)`` in place: a running max over
    the columns is exact."""
    m = z[:, 0].copy()
    for k in range(1, z.shape[1]):
        np.maximum(m, z[:, k], out=m)
    for k in range(z.shape[1]):
        z[:, k] -= m


def _exp_normalize(z: np.ndarray) -> np.ndarray:
    """``z = exp(z) / exp(z).sum(axis=1, keepdims=True)`` in place, the exp
    over the whole contiguous matrix and the row sums added in numpy's
    order by `_row_sum`; returns the row sums."""
    np.exp(z, out=z)
    s = _row_sum(z)
    for k in range(z.shape[1]):
        z[:, k] /= s
    return s


def _softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax of `z`, computed in `z` and returned.

    ``==`` ``e / e.sum(axis=1, keepdims=True)`` with
    ``e = np.exp(z - z.max(axis=1, keepdims=True))``.
    """
    _subtract_row_max(z)
    _exp_normalize(z)
    return z


def _design(X: np.ndarray, mean: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """``np.hstack([ones, (X - mean) / scale])`` without a full-size
    temporary, in the memory order hstack gives a contiguous X (BLAS sums
    the products of the two layouts in different orders)."""
    order = "F" if np.isfortran(X) else "C"
    xb = np.empty((X.shape[0], X.shape[1] + 1), order=order)
    xb[:, 0] = 1.0
    np.subtract(X, mean, out=xb[:, 1:])
    xb[:, 1:] /= scale
    return xb


def _lbfgs_direction(g: np.ndarray, history, scale: float) -> np.ndarray:
    """-H g for the L-BFGS inverse Hessian H of the curvature pairs
    (s, y, 1/s'y) in `history`, oldest first, by the two-loop recursion;
    the initial scale is the newest pair's s'y/y'y, or `scale` without
    pairs."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(history):
        a = rho * float(np.vdot(s, q))
        q -= a * y
        alphas.append(a)
    if history:
        s, y, _ = history[-1]
        scale = float(np.vdot(s, y)) / float(np.vdot(y, y))
    r = scale * q
    for (s, y, rho), a in zip(history, reversed(alphas)):
        r += (a - rho * float(np.vdot(y, r))) * s
    return -r


def train_builtin(
    X: np.ndarray,
    y: np.ndarray,
    *,
    l2: float = 1e-4,
    max_iters: int = 500,
    tol: float = 1e-6,
    n_classes: int | None = None,
) -> ProbModel:
    """Fit the baseline classifier on an already-column-restricted matrix.

    Deterministic: zero initialization, then limited-memory BFGS (Liu &
    Nocedal 1989) over the last `_HISTORY` curvature pairs with s'y > 0.
    The first inverse-Hessian scale is 1/L, where L bounds the loss
    curvature (0.5 * lambda_max(X~'X~)/n plus the penalty), later s'y/y'y.
    Each step backtracks from 1 by halving until the penalized loss
    decreases sufficiently (Armijo); when `_HALVINGS` halvings do not, it
    takes the gradient step w - g/L, which descends on an L-smooth loss,
    and clears the history. Stops when the gradient max-norm at the current
    iterate is < tol, or after max_iters steps. The bias row is not
    penalized.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.intp)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise DataError("X must be 2-D and aligned with y")
    if l2 < 0:
        raise ConfigError("l2 must be >= 0")
    n, d = X.shape
    if n == 0:
        raise DataError("training set is empty")
    n_cls = int(n_classes) if n_classes is not None else int(y.max()) + 1
    if y.min() == y.max():
        raise DataError("training data contains a single class")
    if y.min() < 0 or y.max() >= n_cls:
        raise DataError(f"class codes outside the {n_cls} model columns")

    with np.errstate(over="ignore", invalid="ignore"):
        mean = X.mean(axis=0)
        scale = X.std(axis=0)
    finite = np.isfinite(mean) & np.isfinite(scale)
    if not finite.all():
        raise DataError(f"column {int(np.argmin(finite))} of X: its mean or standard "
                        "deviation overflows the float range")
    scale[scale == 0.0] = 1.0
    xb = _design(X, mean, scale)

    lip = 0.5 * float(np.linalg.eigvalsh(xb.T @ xb)[-1]) / n + l2
    onehot = np.eye(n_cls)[y]
    penalty_mask = np.ones((d + 1, 1))
    penalty_mask[0, 0] = 0.0
    # Each row's true-class entry in the flattened (n, n_cls) logits and
    # probabilities: one gather reads them.
    true = np.arange(n) * n_cls + y
    # The logits of the last point evaluated, then its probabilities, in
    # one buffer that every evaluation reuses: the same IEEE operations in
    # the same order as the out-of-place log-sum-exp loss and
    # xb.T @ (softmax(xb @ w) - onehot) / n + penalty.
    z = np.empty((n, n_cls))

    def loss(w: np.ndarray) -> float:
        """The penalized cross-entropy in nats at w; leaves softmax(xb @ w)
        in z."""
        _subtract_row_max(np.matmul(xb, w, out=z))
        shifted_true = np.take(z.ravel(), true)
        nll = np.log(_exp_normalize(z)) - shifted_true
        return float(nll.mean()) + 0.5 * l2 * float(np.vdot(w[1:], w[1:]))

    def gradient(w: np.ndarray) -> np.ndarray:
        """The gradient at w, the point `loss` evaluated last."""
        np.subtract(z, onehot, out=z)
        g = xb.T @ z
        g /= n
        g += l2 * (w * penalty_mask)
        return g

    w = np.zeros((d + 1, n_cls))
    f = loss(w)
    g = gradient(w)
    history: deque = deque(maxlen=_HISTORY)
    evaluations, fallbacks, iterations = 1, 0, 0
    for _ in range(max_iters):
        if float(np.abs(g).max()) < tol:
            break
        direction = _lbfgs_direction(g, history, 1.0 / lip)
        slope = float(np.vdot(g, direction))
        step = 1.0
        for _ in range(_HALVINGS + 1):
            w_next = w + step * direction
            f_next = loss(w_next)
            evaluations += 1
            if f_next <= f + _ARMIJO * step * slope:
                break
            step *= 0.5
        else:  # no trial decreased the loss enough
            w_next = w - g / lip
            f_next = loss(w_next)
            evaluations += 1
            fallbacks += 1
            history.clear()
        g_next = gradient(w_next)
        s, yk = w_next - w, g_next - g
        sy = float(np.vdot(s, yk))
        if sy > 0.0:
            history.append((s, yk, 1.0 / sy))
        w, f, g = w_next, f_next, g_next
        iterations += 1

    p = _softmax(np.matmul(xb, w, out=z))
    p_true = np.clip(np.take(p.ravel(), true), _PROB_CLAMP, 1.0 - _PROB_CLAMP)
    final_loss = float(-np.log2(p_true).mean())
    return ProbModel(
        weights=w, mean=mean, scale=scale, iterations=iterations, final_loss=final_loss,
        evaluations=evaluations, fallbacks=fallbacks,
    )


def predict_proba(model: ProbModel, X: np.ndarray) -> np.ndarray:
    """Class probabilities for the rows of X, which holds exactly the
    model's training columns in their training order."""
    X = np.asarray(X, dtype=np.float64)
    d = model.mean.shape[0]
    if X.shape[1] != d:
        raise DataError(f"expected {d} feature columns, got {X.shape[1]}")
    return _softmax(_design(X, model.mean, model.scale) @ model.weights)


def normalized_weights(member_aucs) -> tuple[list[int], np.ndarray]:
    """Indices of the retained members and their AUC-proportional weights.

    Members with AUC exactly 0 are dropped with a warning rather than kept
    at zero weight.
    """
    aucs = np.asarray(member_aucs, dtype=np.float64)
    if aucs.ndim != 1 or aucs.shape[0] == 0:
        raise ConfigError("member_aucs must be a non-empty 1-D sequence")
    if (aucs < 0).any():
        raise ConfigError("member AUCs must be non-negative")
    kept = [i for i, a in enumerate(aucs) if a > 0.0]
    if len(kept) < aucs.shape[0]:
        dropped = sorted(set(range(aucs.shape[0])) - set(kept))
        warnings.warn(f"excluding zero-AUC ensemble members {dropped}", stacklevel=2)
    if not kept:
        raise ConfigError("all member AUCs are zero")
    w = aucs[kept]
    return kept, w / w.sum()


def ensemble_predict(probas, weights) -> np.ndarray:
    """Weighted average of the members' probability matrices, all of one
    shape, with one weight per matrix: the kept members and their weights
    from `normalized_weights`."""
    probas = list(probas)
    if not probas:
        raise ConfigError("empty member list")
    if len(probas) != len(weights):
        raise ConfigError("one weight per model required")
    shapes = {np.shape(p) for p in probas}
    if len(shapes) > 1:
        raise DataError(f"ensemble members differ in shape: {sorted(shapes)}")
    out = None
    for w, p in zip(weights, probas):
        out = w * p if out is None else out + w * p
    return out


def _row_entropy_bits(proba: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(proba > 0.0, proba * np.log2(proba), 0.0)
    return -terms.sum(axis=1)


def _ovr_auc(proba: np.ndarray, truth: np.ndarray) -> float:
    """One-vs-rest macro AUC via the midrank statistic.

    Classes absent from `truth` (or covering it entirely) have no defined
    AUC and are skipped.
    """
    n = truth.shape[0]
    ranks = midranks(proba, axis=0)
    per_class = []
    for c in range(proba.shape[1]):
        pos = truth == c
        n_pos = int(pos.sum())
        if n_pos == 0 or n_pos == n:
            continue
        auc = (float(ranks[pos, c].sum()) - n_pos * (n_pos + 1) / 2.0) / (
            n_pos * (n - n_pos)
        )
        per_class.append(auc)
    if not per_class:
        raise DataError("AUC undefined: truth contains a single class")
    return float(np.mean(per_class))


def metrics(proba: np.ndarray, truth) -> MetricReport:
    """Evaluate one probability matrix against true class codes.

    Predicted class is the argmax with ties broken toward the lowest code.
    mec/mew are None when no row is correct/wrong respectively.
    """
    proba = np.asarray(proba, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.intp)
    if proba.ndim != 2 or truth.ndim != 1 or proba.shape[0] != truth.shape[0]:
        raise DataError("probability matrix and truth are misaligned")
    if truth.size == 0:
        raise DataError("empty evaluation set")
    if truth.min() < 0 or truth.max() >= proba.shape[1]:
        raise DataError("truth codes outside the probability columns")
    if not np.allclose(proba.sum(axis=1), 1.0, atol=1e-6):
        raise DataError("probability rows must sum to 1")

    pred = proba.argmax(axis=1)
    correct = pred == truth
    f1_micro = float(correct.mean())
    auc = _ovr_auc(proba, truth)
    p_true = np.clip(proba[np.arange(truth.shape[0]), truth], _PROB_CLAMP, 1.0 - _PROB_CLAMP)
    log_loss = float(-np.log2(p_true).mean())
    ent = _row_entropy_bits(proba)
    mec = float(ent[correct].mean()) if correct.any() else None
    mew = float(ent[~correct].mean()) if (~correct).any() else None
    return MetricReport(
        f1_micro=f1_micro,
        auc=auc,
        log_loss=log_loss,
        mec=mec,
        mew=mew,
    )
