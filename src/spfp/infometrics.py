"""Discrete information-theoretic estimators over small-integer coded columns.

All quantities are maximum-likelihood plug-in estimates from empirical
frequencies, reported in bits (base-2 logarithms). Columns are expected as
dense non-negative integer codes, e.g. the output of
:func:`spfp.dataset.discretize`.

The joint-entropy workhorse is :class:`RowPartition`: a grouping of rows by
their joint value over a set of columns that can be refined one column at a
time, so growing feature subsets never recount from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RowPartition", "PairCache"]

# Elements per column chunk of a counting sweep (1 MiB of int64 keys): the
# key block and the count table stay in cache, which measured about a third
# faster than one whole-matrix chunk on a 6,700 x 500 code matrix. At 2^18
# the sweeps' own temporaries set `partition`'s peak RSS on the 3k x 150
# benchmark workload's seed-11 inputs (44.8 MB, against 42.9 MB at 2^17,
# where loading sets it), with no faster partition().
_SWEEP_BLOCK = 1 << 17


def _as_codes(column, name: str = "column") -> np.ndarray:
    codes = np.asarray(column)
    if codes.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if codes.size == 0:
        raise ValueError(f"{name} is empty")
    codes = codes.astype(np.intp, copy=False)
    if codes.min() < 0:
        raise ValueError(f"{name} contains negative codes")
    return codes


def _entropies(counts: np.ndarray) -> np.ndarray:
    """Plug-in entropy in bits of every row of a 2-D count table.

    A row's entropy is summed over its count profile: the occupied counts k
    in ascending order, each contributing m_k * -(p log2 p) at p = k/total,
    where m_k is the number of the row's cells that hold k. The bits depend
    only on the row's count multiset, never on cell order, empty cells or
    the other rows, which keeps refinement and direct counting, and I(X;Y)
    and I(Y;X), equal bit for bit. Every row must hold a positive count.
    """
    n_rows, n_cells = counts.shape
    top = int(counts.max()) + 1
    key = np.arange(n_rows)[:, None] * top + counts
    # Count the (row, k) profile densely while its n_rows x top cells are no
    # more than the table's, else from the occupied keys alone: both give
    # the same (row, k, m_k) in the same order.
    if top <= n_cells:
        profile = np.bincount(key.ravel(), minlength=n_rows * top).reshape(n_rows, top)
        profile[:, 0] = 0
        rows, k = np.nonzero(profile)
        m = profile[rows, k]
    else:
        keys, m = np.unique(key[counts > 0], return_counts=True)
        rows, k = np.divmod(keys, top)
    p = k / counts.sum(axis=1)[rows]
    return np.add.reduceat(m * -(p * np.log2(p)), np.searchsorted(rows, np.arange(n_rows)))


@dataclass
class RowPartition:
    """Rows grouped by joint value over a set of columns.

    Group indices are dense (0..n_groups-1) and re-densified after every
    refinement, which keeps joint keys bounded regardless of how many columns
    have been folded in. The entropy of the group sizes equals the plug-in
    joint entropy of the refined columns.
    """

    group_id: np.ndarray
    group_sizes: np.ndarray

    @property
    def n_groups(self) -> int:
        return self.group_sizes.shape[0]

    @classmethod
    def trivial(cls, n_rows: int) -> "RowPartition":
        """Single-group partition: the joint state of an empty column set."""
        if n_rows <= 0:
            raise ValueError("n_rows must be positive")
        return cls(np.zeros(n_rows, dtype=np.intp), np.array([n_rows], dtype=np.intp))

    @classmethod
    def from_columns(cls, columns) -> "RowPartition":
        part = None
        for col in columns:
            codes = _as_codes(col)
            part = cls.trivial(codes.shape[0]) if part is None else part
            part = part.refine(codes)
        if part is None:
            raise ValueError("at least one column required")
        return part

    def refine(self, column) -> "RowPartition":
        """Intersect every group with the value classes of `column`."""
        codes = _as_codes(column)
        n_rows = self.group_id.shape[0]
        if codes.shape[0] != n_rows:
            raise ValueError("length mismatch between partition and column")
        if self.n_groups == n_rows:  # singletons cannot split
            return self
        card = int(codes.max()) + 1
        key = self.group_id * card + codes
        # Dense recode: occupied keys -> 0..n_groups-1, preserving key order.
        # Counting every cell is the faster path while the n_groups * card
        # cells number no more than the rows or 2^16 (512 KiB of counts);
        # past both, sorting the keys costs less memory and gives the same
        # order. On the 4,020 training rows of the 6k x 66 benchmark
        # workload the 2^16 floor took partition() from 77-79 to 69-73 ms
        # (min of 9 runs), which pays for casting its uint8 codes.
        if self.n_groups * card > max(n_rows, 1 << 16):
            _, group_id, sizes = np.unique(key, return_inverse=True, return_counts=True)
            return RowPartition(group_id, sizes)
        counts = np.bincount(key, minlength=self.n_groups * card)
        occupied = np.flatnonzero(counts)
        remap = np.empty(self.n_groups * card, dtype=np.intp)
        remap[occupied] = np.arange(occupied.shape[0])
        return RowPartition(remap[key], counts[occupied].astype(np.intp))

    def entropy(self) -> float:
        return float(_entropies(self.group_sizes[None])[0])


class PairCache:
    """Pairwise MI and CMI-given-target, in bits, memoised by feature.

    `mi_y` holds I(f;Y) of every feature. `winner_stats` computes a feature
    against every live feature in one counting sweep; the greedy search
    calls it once per selected feature, and a feature selected again in a
    later view reuses it. A sweep counts only the live features that were
    not themselves a winner: the entry of an earlier winner c is read from
    c's own sweep, which counted the same table transposed. Features passed
    to `retire` are left out of every later sweep, and their entries are
    NaN. `sweeps` counts the sweeps made, `memo_hits` the calls that reused
    one, and ``len()`` the pair statistics the sweeps counted.
    """

    def __init__(self, codes: np.ndarray, target) -> None:
        # One contiguous row per feature, in the codes' own dtype: a sweep's
        # keys then fill each column's count block in turn instead of
        # scattering over all of them.
        self._cols = np.ascontiguousarray(np.asarray(codes).T)
        self._target = _as_codes(target, "target")
        if self._cols.shape[1] != self._target.shape[0]:
            raise ValueError("length mismatch between codes and target")
        self._cards = self._cols.max(axis=1).astype(np.intp) + 1
        self._n = self._cols.shape[1]
        self._t_card = int(self._target.max()) + 1
        self._h_target = float(_entropies(np.bincount(self._target)[None])[0])
        # H(f) and H(f,Y) of every feature: the sweep of a constant winner
        self._h_feat, self._h_feat_t = self._sweep(
            self._target, 1, np.arange(self._cols.shape[0]))
        self.mi_y = np.maximum(0.0, self._h_feat + self._h_target - self._h_feat_t)
        self._winner: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._live = np.ones(self._cols.shape[0], dtype=bool)
        self._counted = 0
        self.memo_hits = 0

    @property
    def columns(self) -> np.ndarray:
        """The codes, feature-major: row i is feature i's column."""
        return self._cols

    def retire(self, ids) -> None:
        """Leave features `ids` out of every later sweep; a retired feature
        must never be scored again."""
        self._live[np.asarray(ids, dtype=np.intp)] = False

    def _sweep(self, wy: np.ndarray, k_w: int, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(H(W,f_c), H(W,Y,f_c)) for every feature c in `ids`, where the
        intp array `wy` holds W * n_y + Y of each row and W takes `k_w`
        values.

        One `bincount` per column chunk counts the (W, Y, f_c) table of
        every column at once; summing out Y gives the (W, f_c) table.
        Column chunks keep the key block and the count table within
        `_SWEEP_BLOCK` elements, unless one column's table alone is larger.
        """
        n_feat, n_y = ids.shape[0], self._t_card
        h_wc = np.empty(n_feat)
        h_wcy = np.empty(n_feat)
        k_max = int(self._cards.max())
        width = max(1, min(n_feat, _SWEEP_BLOCK // max(self._n, k_w * n_y * k_max)))
        buf = np.empty((width, self._n), dtype=np.intp)  # every chunk's keys
        for lo in range(0, n_feat, width):
            hi = min(lo + width, n_feat)
            chunk = ids[lo:hi]
            k = int(self._cards[chunk].max())
            cells = k_w * n_y * k
            key = np.add(self._cols[chunk], wy * k, out=buf[: hi - lo])
            key += np.arange(hi - lo)[:, None] * cells
            counts = np.bincount(key.ravel(), minlength=(hi - lo) * cells)
            counts = counts.reshape(hi - lo, k_w, n_y, k)
            h_wcy[lo:hi] = _entropies(counts.reshape(hi - lo, -1))
            h_wc[lo:hi] = _entropies(counts.sum(axis=2).reshape(hi - lo, -1))
        return h_wc, h_wcy

    def winner_stats(self, w: int) -> tuple[np.ndarray, np.ndarray]:
        """(I(f_w;f_c), I(f_w;f_c|Y)) for every feature c, as two arrays,
        from one counting sweep with f_w as the winner; NaN where c is
        retired."""
        hit = self._winner.get(w)
        if hit is not None:
            self.memo_hits += 1
            return hit
        mi = np.full(self._cols.shape[0], np.nan)
        cmi = np.full(self._cols.shape[0], np.nan)
        # The (f_w,Y,f_c) and (f_c,Y,f_w) tables hold the same counts and
        # _entropies reads only the count multiset, so an earlier winner's
        # entry for w is the bits this sweep would give. A live w was live,
        # so counted, in every earlier sweep.
        todo = self._live.copy()
        for c, (mi_c, cmi_c) in self._winner.items():
            if todo[c] and self._live[w]:
                mi[c], cmi[c] = mi_c[w], cmi_c[w]
                todo[c] = False
        ids = np.flatnonzero(todo)
        # cast first: narrow codes times n_y would wrap in their own dtype
        wy = self._cols[w].astype(np.intp) * self._t_card + self._target
        h_wc, h_wcy = self._sweep(wy, int(self._cards[w]), ids)
        h_f, h_fy = self._h_feat[ids], self._h_feat_t[ids]
        mi[ids] = np.maximum(0.0, self._h_feat[w] + h_f - h_wc)
        cmi[ids] = np.maximum(0.0, self._h_feat_t[w] + h_fy - h_wcy - self._h_target)
        self._counted += ids.shape[0]
        self._winner[w] = (mi, cmi)
        return self._winner[w]

    @property
    def sweeps(self) -> int:
        return len(self._winner)

    def __len__(self) -> int:
        """Number of pair statistics the sweeps counted."""
        return self._counted
