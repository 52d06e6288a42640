"""Read one smallest trapping set out of the DP's root table.

Every table entry carries the bitmask of one minimizer next to its (f, g)
pair, so the root state ``(0, 0, b)``, read by ``DPTable.answer(b)``,
already names a witness; nothing is retained or backtracked.  On a tie
the DP keeps the integer-smaller variable bitmask, so the witness is the
minimizer with the smallest ``sum(1 << v)``, whatever the decomposition
and whether the run took each chain of variable nodes in one pass or
node by node.
"""

from __future__ import annotations

from trapgraph.decomp import NiceTreeDecomposition
from trapgraph.dpcore import DPTable
from trapgraph.tanner import TannerGraph, bit_ids


class WitnessError(RuntimeError):
    pass


def extract_witness(g: TannerGraph, ntd: NiceTreeDecomposition, b: int,
                    tables: list[DPTable | None]) -> frozenset[int]:
    """One variable set S with |S| = a_min and exactly b odd checks.

    ``tables`` is ``DPResult.tables``; only its root slot is read.  Raises
    WitnessError when the root state is absent.  The result is validated
    against the graph before returning: its size, and its odd checks,
    counted by XOR-ing the members' ``var_adj`` lists, so the check costs
    O(|S| * degree) and builds no bitmask per variable.
    """
    root_entry = tables[ntd.root].answer(b)
    if root_entry is None:
        raise WitnessError(f"no (a,{b})-trapping set exists")
    a_min, _, members = root_entry
    witness = frozenset(bit_ids(members))
    odd: set[int] = set()
    for v in witness:
        odd.symmetric_difference_update(g.var_adj[v])
    if len(witness) != a_min or len(odd) != b:
        raise WitnessError("extracted witness failed validation")
    return witness
