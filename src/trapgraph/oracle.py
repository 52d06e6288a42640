"""Exhaustive trapping-set enumeration, used as ground truth at desk scale.

Deliberately naive: subsets of variable nodes are swept by increasing size
and their odd neighborhoods recomputed from scratch via bitmask XOR.
"""

from __future__ import annotations

import itertools
from functools import reduce
from typing import NamedTuple

from trapgraph.tanner import TannerGraph

DEFAULT_WORK_LIMIT = 10**8

# full 2^n sweeps beat size-by-size enumeration only for small n
_DENSE_LIMIT_BITS = 20


class WorkLimitExceeded(RuntimeError):
    """Raised when the configured number of subset evaluations is exhausted."""


class TrappingSetRecord(NamedTuple):
    """One trapping set: sorted members, size a, number b of odd checks."""

    members: tuple[int, ...]
    a: int
    b: int

    def to_json(self) -> dict:
        return {"a": self.a, "b": self.b, "members": list(self.members)}


def brute_force_enumerate(g: TannerGraph, a_max: int, b_target: int,
                          work_limit: int = DEFAULT_WORK_LIMIT
                          ) -> list[TrappingSetRecord]:
    """All nonempty variable sets S with |S| <= a_max and exactly b_target
    odd checks, sorted lexicographically by members."""
    masks = g.var_masks
    records = []
    work = 0
    for a in range(1, min(a_max, g.n_var) + 1):
        for combo in itertools.combinations(range(g.n_var), a):
            work += 1
            if work > work_limit:
                raise WorkLimitExceeded(f"exceeded {work_limit} subset evaluations")
            x = reduce(lambda acc, v: acc ^ masks[v], combo, 0)
            if x.bit_count() == b_target:
                records.append(TrappingSetRecord(combo, a, b_target))
    records.sort(key=lambda r: r.members)
    return records


def brute_force_spectrum(g: TannerGraph, b_target: int,
                         work_limit: int = DEFAULT_WORK_LIMIT
                         ) -> tuple[int, int] | None:
    """Smallest a with at least one (a, b_target)-trapping set, plus the
    exact count at that size; None when no such set exists."""
    if g.n_var <= _DENSE_LIMIT_BITS and (1 << g.n_var) <= work_limit:
        return _dense_spectrum(g, b_target)
    masks = g.var_masks
    work = 0
    for a in range(1, g.n_var + 1):
        count = 0
        for combo in itertools.combinations(range(g.n_var), a):
            work += 1
            if work > work_limit:
                raise WorkLimitExceeded(f"exceeded {work_limit} subset evaluations")
            x = reduce(lambda acc, v: acc ^ masks[v], combo, 0)
            if x.bit_count() == b_target:
                count += 1
        if count:
            return a, count
    return None


def _dense_spectrum(g: TannerGraph, b_target: int) -> tuple[int, int] | None:
    masks = g.var_masks
    n = g.n_var
    syndrome = [0] * (1 << n)
    best: int | None = None
    count = 0
    for s in range(1, 1 << n):
        low = s & -s
        syn = syndrome[s ^ low] ^ masks[low.bit_length() - 1]
        syndrome[s] = syn
        if syn.bit_count() != b_target:
            continue
        a = s.bit_count()
        if best is None or a < best:
            best, count = a, 1
        elif a == best:
            count += 1
    if best is None:
        return None
    return best, count
