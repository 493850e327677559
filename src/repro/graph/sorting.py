"""Sorts of bounded integer keys, bit-identical to numpy's defaults.

Every hot sort in the graph, placement and quality layers orders keys
that are vertex ids or ``vertex * k + partition`` pairs: non-negative
integers far below ``2**32``.  numpy's defaults are slow on them:

* ``np.unique(x)`` takes a hash-table path on integer arrays (numpy
  2.x) and then sorts the distinct values; ``np.sort`` plus a
  run-length dedupe returns the same array several times faster.
* ``np.argsort(keys, kind="stable")`` on ``int64`` runs a comparison
  merge sort, while numpy's stable sort of ``uint16`` is a radix sort.
  Two least-significant-digit passes over the low and high 16 bits give
  the same permutation for any key below ``2**32``: a stable sort's
  permutation is unique.

Both helpers return exactly what the numpy call they replace returns
(values, dtype and order); inputs outside the fast path's domain take
the numpy call itself.
"""

from __future__ import annotations

import numpy as np

__all__ = ["dedupe_sorted", "sorted_unique", "stable_argsort"]

_RADIX = 1 << 16
#: Below this many keys numpy's merge sort beats the radix passes' fixed
#: cost (measured crossover: 400-1,500 keys).
_RADIX_MIN_KEYS = 1024


def dedupe_sorted(values: np.ndarray) -> np.ndarray:
    """Distinct values of an already-sorted 1-D array, in order."""
    if not values.size:
        return values
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` by ``np.sort`` plus a run-length dedupe.

    Integer and boolean arrays take the fast path; other dtypes (where
    ``np.unique`` folds NaNs and signed zeros) go to ``np.unique``.
    """
    values = np.asarray(values)
    if values.dtype.kind not in "biu":
        return np.unique(values)
    return dedupe_sorted(np.sort(values, axis=None))


def stable_argsort(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")``, by uint16 radix passes.

    1-D integer keys in ``[0, 2**32)`` sort in one pass when they are
    below ``2**16`` and in two otherwise (low half, then high half);
    anything else, and fewer than 1,024 keys, uses numpy's stable sort
    directly.
    """
    keys = np.asarray(keys)
    if (keys.ndim != 1 or keys.size < _RADIX_MIN_KEYS
            or keys.dtype.kind not in "iu"):
        return np.argsort(keys, kind="stable")
    lo, hi = int(keys.min()), int(keys.max())
    if lo < 0 or hi >= _RADIX * _RADIX:
        return np.argsort(keys, kind="stable")
    if hi < _RADIX:
        return np.argsort(keys.astype(np.uint16), kind="stable")
    order = np.argsort((keys & (_RADIX - 1)).astype(np.uint16), kind="stable")
    high = (keys[order] >> 16).astype(np.uint16)
    return order[np.argsort(high, kind="stable")]
