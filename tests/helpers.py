"""Construction helpers and structural property verifiers shared by unit
and acceptance tests.

The two verifiers at the bottom check consequences of class membership
exhaustively over the value table, by a route independent of the library's
own class checkers: equal-valued sets stay equal-valued under common
extensions (cancelable), and the lattice inequality plus unit-cost
reduction to a singleton (binary submodular).
"""

from __future__ import annotations

import random

import numpy as np

from chorefair.costs import CostFunction, Table, Witness, value_table
from chorefair.instances import Instance
from chorefair.itemset import iter_items


def cap7_pair() -> Instance:
    """Two min(|S|, 7) tables on 13 items, declared additive although they
    are not: past the exhaustive class gate, and a 7/6 split of them meets
    the additive social-cost floor without being Pareto-optimal."""
    cap7 = Table(m=13, values=tuple(min(s.bit_count(), 7) for s in range(1 << 13)))
    return Instance(n=2, m=13, agents=(cap7, cap7), declared_class="additive")


def random_binary_table(m: int, rng: random.Random) -> Table:
    """Monotone table with all marginals in {0, 1}.

    Every value sits between the max of its one-removals (monotone) and
    their min plus one (unit steps), chosen at random.
    """
    vals = [0] * (1 << m)
    for mask in range(1, 1 << m):
        subs = [vals[mask ^ (1 << e)] for e in iter_items(mask)]
        lo, hi = max(subs), min(subs) + 1
        vals[mask] = rng.choice((lo, hi)) if hi >= lo else lo
    return Table(m=m, values=tuple(vals))


def random_monotone_table(m: int, rng: random.Random, steps=(0, 1, 2)) -> Table:
    """Monotone table whose marginals may exceed 1."""
    vals = [0] * (1 << m)
    for mask in range(1, 1 << m):
        base = max(vals[mask ^ (1 << e)] for e in iter_items(mask))
        vals[mask] = base + rng.choice(steps)
    return Table(m=m, values=tuple(vals))


def _grouped_extension_mismatch(values, masks, extension):
    """First pair of equal-valued masks whose extensions disagree, if any.

    ``masks`` must be disjoint from ``extension``.
    """
    base = values[masks]
    ext = values[masks | extension]
    order = np.argsort(base, kind="stable")
    base, ext, masks = base[order], ext[order], masks[order]
    same = base[1:] == base[:-1]
    bad = np.nonzero(same & (ext[1:] != ext[:-1]))[0]
    if bad.size == 0:
        return None
    k = int(bad[0])
    return int(masks[k]), int(masks[k + 1])


def equal_sets_extend_equally(fn: CostFunction):
    """Exhaustively verify the two closure laws of cancelable costs.

    Whenever two sets cost the same, adding one common outside item, or
    any common outside set, must keep them costing the same.  Returns
    ``None`` when both laws hold, else ("item"|"set", S, T, extension).
    """
    values = value_table(fn)
    all_masks = np.arange(1 << fn.m, dtype=np.int64)
    for e in range(fn.m):
        bit = 1 << e
        masks = all_masks[(all_masks & bit) == 0]
        hit = _grouped_extension_mismatch(values, masks, bit)
        if hit is not None:
            return ("item", hit[0], hit[1], bit)
    for ext in range(1, 1 << fn.m):
        masks = all_masks[(all_masks & ext) == 0]
        hit = _grouped_extension_mismatch(values, masks, ext)
        if hit is not None:
            return ("set", hit[0], hit[1], int(ext))
    return None


def submodular_lattice_holds(fn: CostFunction):
    """Exhaustively verify the two marks of binary submodular costs.

    The lattice inequality v(S) + v(T) >= v(S|T) + v(S&T) over all pairs,
    and for every unit-cost set of size two or more, some single removal
    that keeps the cost at one.  Returns ``None`` when both hold, else
    ("lattice", S, T) or ("reduction", S).
    """
    values = value_table(fn)
    all_masks = np.arange(1 << fn.m, dtype=np.int64)
    for s in range(1 << fn.m):
        lhs = values[s] + values
        rhs = values[s | all_masks] + values[s & all_masks]
        bad = np.nonzero(lhs < rhs)[0]
        if bad.size:
            return ("lattice", s, int(bad[0]))
    for s in range(1 << fn.m):
        if values[s] == 1 and s.bit_count() >= 2:
            if all(values[s ^ (1 << e)] != 1 for e in iter_items(s)):
                return ("reduction", s)
    return None


# ---------------------------------------------------------------------------
# Reference class kernels: the mask-and-gather loops the library's strided
# kernels replaced, kept verbatim so the property tests can compare verdicts
# and witness triples on arbitrary value arrays.
# ---------------------------------------------------------------------------


def gather_check_marginals(m: int, v: np.ndarray, witnesses: dict[str, Witness]) -> tuple[bool, bool]:
    idx = np.arange(1 << m, dtype=np.int64)
    binary = monotone = True
    for e in range(m):
        bit = 1 << e
        lo = idx[(idx & bit) == 0]
        marg = v[lo | bit] - v[lo]
        if monotone:
            bad = marg < 0
            if bad.any():
                s = int(lo[int(np.argmax(bad))])
                witnesses["monotone"] = (s, s | bit, e)
                monotone = False
        if binary:
            bad = (marg < 0) | (marg > 1)
            if bad.any():
                s = int(lo[int(np.argmax(bad))])
                witnesses["binary_marginal"] = (s, s | bit, e)
                binary = False
        if not binary and not monotone:
            break
    return binary, monotone


def gather_check_cancelable(m: int, v: np.ndarray, witnesses: dict[str, Witness]) -> bool:
    """Look for S, T, e with c(S) <= c(T) but c(S+e) > c(T+e).

    For each e, masks avoiding e are sorted by base value; a violation
    exists iff some group's after-adding-e values are not constant over
    equal base values, or the running maximum over strictly smaller base
    values exceeds a later group's minimum.  This covers arbitrary integer
    values, not just binary marginals.
    """
    idx = np.arange(1 << m, dtype=np.int64)
    for e in range(m):
        bit = 1 << e
        lo = idx[(idx & bit) == 0]
        base = v[lo]
        after = v[lo | bit]
        order = np.argsort(base, kind="stable")
        sb, sa = base[order], after[order]
        starts = np.flatnonzero(np.r_[True, sb[1:] != sb[:-1]])
        gmax = np.maximum.reduceat(sa, starts)
        gmin = np.minimum.reduceat(sa, starts)
        prev_max = np.r_[np.int64(np.iinfo(np.int64).min), np.maximum.accumulate(gmax)[:-1]]
        viol = (gmax > gmin) | (prev_max > gmin)
        if not viol.any():
            continue
        g = int(np.argmax(viol))
        ends = np.r_[starts[1:], len(sa)]
        lo_sorted = lo[order]
        t_pos = starts[g] + int(np.argmin(sa[starts[g]:ends[g]]))
        t_mask = int(lo_sorted[t_pos])
        limit = int(sa[t_pos])
        # any earlier-or-equal base value whose after-value beats T's works
        s_candidates = np.flatnonzero(sa[: ends[g]] > limit)
        s_pos = int(s_candidates[0])
        s_mask = int(lo_sorted[s_pos])
        witnesses["cancelable"] = (s_mask, t_mask, e)
        return False
    return True


def gather_check_submodular(m: int, v: np.ndarray, witnesses: dict[str, Witness]) -> bool:
    # Pairwise local condition: c(e | S) >= c(e | S + f) for all S, e != f
    # outside S.  This is equivalent to diminishing marginals over nested
    # sets by induction along a chain from S to T.
    idx = np.arange(1 << m, dtype=np.int64)
    for e in range(m):
        be = 1 << e
        for f in range(e + 1, m):
            bf = 1 << f
            base = idx[(idx & (be | bf)) == 0]
            lhs = v[base | be] + v[base | bf]
            rhs = v[base | be | bf] + v[base]
            bad = lhs < rhs
            if bad.any():
                s = int(base[int(np.argmax(bad))])
                # adding f enlarged e's marginal (or vice versa)
                if v[s | be] - v[s] < v[s | be | bf] - v[s | bf]:
                    witnesses["submodular"] = (s, s | bf, e)
                else:
                    witnesses["submodular"] = (s, s | be, f)
                return False
    return True
