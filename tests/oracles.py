"""Brute-force scalar estimators the tests check the package against.

Plug-in entropy, joint and conditional entropy, MI, CMI and interaction
gain, in bits, of whole coded columns, each counted from scratch through
`RowPartition` and `_entropies`, and the absolute Pearson correlation.
They run the package's own entropy arithmetic, so every live `PairCache`
entry equals `mutual_information` and `conditional_mutual_information`
bit for bit. No stage calls them.
"""

import numpy as np

from spfp.infometrics import RowPartition, _as_codes, _entropies


def entropy(column) -> float:
    """Shannon entropy H of one coded column, in bits."""
    codes = _as_codes(column)
    return float(_entropies(np.bincount(codes)[None])[0])


def joint_entropy(columns) -> float:
    """Entropy of the row tuples over one or more coded columns, in bits."""
    return RowPartition.from_columns(columns).entropy()


def conditional_entropy(x, given) -> float:
    """H(X|Y) = H(X,Y) - H(Y), in bits."""
    xc, yc = _as_codes(x, "x"), _as_codes(given, "given")
    return joint_entropy([xc, yc]) - entropy(yc)


def mutual_information(x, y) -> float:
    """I(X;Y) = H(X) + H(Y) - H(X,Y), in bits; small negatives clamped to 0."""
    xc, yc = _as_codes(x, "x"), _as_codes(y, "y")
    value = entropy(xc) + entropy(yc) - joint_entropy([xc, yc])
    return max(0.0, value)


def conditional_mutual_information(x, y, given) -> float:
    """I(X;Y|Z) = H(X,Z) + H(Y,Z) - H(X,Y,Z) - H(Z), in bits; clamped at 0."""
    xc = _as_codes(x, "x")
    yc = _as_codes(y, "y")
    zc = _as_codes(given, "given")
    value = (
        joint_entropy([xc, zc])
        + joint_entropy([yc, zc])
        - joint_entropy([xc, yc, zc])
        - entropy(zc)
    )
    return max(0.0, value)


def interaction_gain(x, y, target) -> float:
    """I(X;Y) - I(X;Y|target), applied exactly as written: complementary
    pairs (XOR against their parity) come out negative, redundant pairs
    positive. No sign flip is applied on top of the difference."""
    xc = _as_codes(x, "x")
    yc = _as_codes(y, "y")
    tc = _as_codes(target, "target")
    return mutual_information(xc, yc) - conditional_mutual_information(xc, yc, tc)


def pearson_abs(x, y) -> float:
    """Absolute sample Pearson correlation; 0 when either input has zero variance."""
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.shape != yv.shape:
        raise ValueError(f"length mismatch: {xv.shape[0]} vs {yv.shape[0]}")
    if xv.shape[0] < 2:
        raise ValueError("at least two observations required")
    xc = xv - xv.mean()
    yc = yv - yv.mean()
    denom = np.sqrt((xc * xc).sum() * (yc * yc).sum())
    if denom == 0.0:
        return 0.0
    return min(1.0, float(abs((xc * yc).sum() / denom)))
