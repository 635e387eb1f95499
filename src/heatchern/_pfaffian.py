"""The first-row Pfaffian expansion behind ``equivariant.pfaffian``,
``euler_form`` and ``transgression``, on dense integer minors.

It lives apart from ``equivariant``, which holds the index density and
its level tables: the two routes of ``fixed-point/index-density`` are two
algorithms, and the Pfaffian route reaches nothing of the density's.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .multivector import Multivector, _suffix_parity
from .scalars import _require_exact


@functools.lru_cache(maxsize=8)
def _pair_table(a: int, words: tuple) -> tuple:
    """The pairs (p, w) of an entry word p among the sorted e-masks
    ``words`` on a indices and a target w containing it, ordered by w.

    Returns (word, rest, sign, targets, starts): per pair, the index of p
    in ``words``, w ^ p, and the sign of e^p in front of e^(w ^ p); the
    distinct w, ascending, and the first pair of each.  A pair whose p and
    w ^ p overlap would be zero, so it is not listed: each p meets exactly
    the 2^(a - |p|) masks disjoint from it.  The table is listed in plain
    Python, once per a and word set: built with numpy's sort, nonzero and
    bit-count kernels, its first call paged about 0.5 MB of their code
    into a fresh process.
    """
    pairs = sorted((p | r, k, r) for k, p in enumerate(words)
                   for r in range(1 << a) if not p & r)
    suffix = [_suffix_parity(p) for p in words]
    # e^p e^r = (-1)^{popcount(suffix parity of p & r)} e^(p | r)
    sign = [-1 if (suffix[k] & r).bit_count() & 1 else 1 for _, k, r in pairs]
    starts = [i for i, pair in enumerate(pairs)
              if i == 0 or pairs[i - 1][0] != pair[0]]
    table = (np.array([k for _, k, _ in pairs], dtype=np.int64),
             np.array([r for _, _, r in pairs], dtype=np.int64),
             np.array(sign, dtype=np.int8),
             np.array([pairs[i][0] for i in starts], dtype=np.int64),
             np.array(starts, dtype=np.int64))
    for array in table:
        array.flags.writeable = False
    return table


def _entry_products(entries, minors, signs, table: tuple):
    """sum_r signs[r] * entries[r] ^ minors[r], as a dense minor.

    Row r of ``entries`` holds an entry's coefficients spread over the
    pairs of ``table`` (``_pair_table``: the coefficient of p times the
    pair's sign), and row r of ``minors`` a dense minor over the 2^a
    e-masks; the gather reads the minor at w ^ p for each pair, and the
    pairs of each target w are summed into it.  The expansion calls this
    once per minor.
    """
    _, rest, _, targets, starts = table
    terms = (minors * signs[:, None]).take(rest, axis=1)
    terms *= entries
    terms = terms.sum(axis=0)
    out = np.zeros(minors.shape[1], dtype=minors.dtype)
    out[targets] = np.add.reduceat(terms, starts)
    return out


class _Expansion:
    """The memoized first-row recursion of ``_pfaffian_expansion``.

    ``base`` and ``marked`` map each (i, j) with a nonzero entry to its
    row of ``entries``; a minor is a dense array over the 2^a e-masks,
    kept in ``memo`` by (remaining indices, marked entry used or not).
    It is a plain object, not a closure that calls itself, so its minors
    are freed when the expansion returns or raises.
    """

    __slots__ = ("base", "marked", "entries", "table", "unit", "zero", "memo")

    def __init__(self, base, marked, entries, table, dtype, size):
        self.base, self.marked = base, marked
        self.entries, self.table = entries, table
        self.zero = np.zeros(size, dtype=dtype)
        self.unit = self.zero.copy()
        self.unit[0] = 1
        self.memo = {}

    def minor(self, indices: tuple, used_marked: bool):
        if not indices:
            return self.unit if used_marked else self.zero
        key = (indices, used_marked)
        if key in self.memo:
            return self.memo[key]
        i0, rest = indices[0], indices[1:]
        # (rows, whether the minor below has used the marked entry)
        sources = (((self.base, True),) if used_marked
                   else ((self.marked, True), (self.base, False)))
        rows, minors, signs = [], [], []
        for pos, j in enumerate(rest):
            sub_rest = rest[:pos] + rest[pos + 1:]
            for row_of, used in sources:
                row = row_of.get((i0, j))
                # an empty minor without the marked entry is zero
                if row is not None and (sub_rest or used):
                    rows.append(row)
                    minors.append(self.minor(sub_rest, used))
                    signs.append(-1 if pos & 1 else 1)
        out = self.zero
        if rows:
            out = _entry_products(self.entries[rows], np.array(minors),
                                  np.array(signs, dtype=out.dtype), self.table)
        self.memo[key] = out
        return out


def _pfaffian_expansion(base: dict, marked: dict | None, a: int) -> Multivector:
    """Expansion of a Pfaffian of commuting even forms along its first row.

    With marked None this is Pf(base).  Otherwise it is the multilinear
    sum in which exactly one entry comes from marked and all others from
    base: the derivative of Pf(base + b marked) at b = 0.  Both dicts map
    (i,j), i<j, to forms on the a tangent e-indices; antisymmetry below
    the diagonal is implied.  A minor (remaining indices, marked entry
    used or not) is reached along several paths of the expansion and is
    computed once (``_Expansion``).

    It runs on integer numerators: every entry is scaled by D, the lcm of
    the denominators of all coefficients of base and marked.  Each term of
    the expansion is a product of exactly a/2 entries, so the integer
    result is D^(a/2) times the Pfaffian, and one division by D^(a/2) at
    the end is exact.  Each minor is a dense integer array over the 2^a
    e-masks, and an entry times a minor is one gather over the pairs
    (entry word p, target w containing p) of ``_pair_table``, built once
    per a and set of entry words: pairs that overlap are never formed.
    The sum runs in int64 when (a-1)!! max(a/2, 1) L^(a/2), L the largest
    sum of an entry's absolute numerators, bounds every partial sum below
    2^63, and in Python ints (``dtype=object``) otherwise.

    Coefficients must be ints or Fractions; a float raises
    ``BackendMismatch``.  An entry with an ehat index raises
    ``ValueError``.
    """
    matrices = (base, marked or {})
    for matrix in matrices:
        for key, e in matrix.items():
            if e.n != a:
                raise ValueError(f"entry {key} has n={e.n}, not {a}")
            for (_, t), c in e.terms.items():
                _require_exact(c, "Pfaffian entry coefficient")
                if t:
                    raise ValueError(f"entry {key} has an ehat word; Pfaffian "
                                     "entries are forms on the e-indices")
    D = math.lcm(*(c.denominator for matrix in matrices
                   for e in matrix.values() for c in e.terms.values()))
    words = sorted({s for matrix in matrices for e in matrix.values()
                    for s, _ in e.terms})
    column = {s: k for k, s in enumerate(words)}
    rows, nums = ({}, {}), []
    for row_of, matrix in zip(rows, matrices):
        for key, e in matrix.items():
            if e.terms:
                row_of[key] = len(nums)
                nums.append({column[s]: c.numerator * (D // c.denominator)
                             for (s, _), c in e.terms.items()})
    largest = max((sum(map(abs, row.values())) for row in nums), default=0)
    bound = (math.prod(range(a - 1, 0, -2)) * max(a // 2, 1)
             * largest ** (a // 2))
    dtype = np.int64 if bound < 2 ** 63 else object
    # the entries spread over the pairs are the largest array of the call:
    # on the int64 path they are held in the narrowest signed type that
    # takes every numerator and its negative
    widest = max((abs(v) for row in nums for v in row.values()), default=0)
    narrow = np.min_scalar_type(-widest - 1) if dtype is np.int64 else dtype
    coefficients = np.zeros((len(nums), len(words)), dtype=narrow)
    for r, row in enumerate(nums):
        coefficients[r, list(row)] = list(row.values())
    table = _pair_table(a, tuple(words))
    word, _, sign, _, _ = table
    entries = coefficients[:, word] * sign
    expansion = _Expansion(*rows, entries, table, dtype, 1 << a)
    top = expansion.minor(tuple(range(1, a + 1)), marked is None)
    scale = D ** (a // 2)
    nonzero = np.flatnonzero(top)
    return Multivector._built(a, {(w, 0): Fraction(c, scale) for w, c in zip(
        nonzero.tolist(), top[nonzero].tolist())})
