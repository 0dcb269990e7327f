"""I/O-efficient two-pass structure-aware sampling (paper Section 5).

Two read-only streaming passes over the (unsorted) data using memory
O~(s):

1. Pass 1 computes the exact IPPS threshold tau_s (Algorithm 4) and a
   structure-oblivious guide sample S' of size s' (default 5s, as in
   the paper's experiments).
2. The guide sample induces a partition L of the key domain in which
   every cell has probability mass <= 1 with high probability.
3. Pass 2 runs IO-AGGREGATE (Algorithm 3): at most one active
   fractional key per cell, pair-aggregating within cells.
4. The surviving active keys are aggregated following the structure
   (kd-tree / sorted order / hierarchy).
"""

from repro.twopass.partitions import (
    OrderPartition,
    KDPartition,
    HierarchyAncestorPartition,
    DisjointPartition,
)
from repro.twopass.two_pass import TwoPassSampler, two_pass_summary

__all__ = [
    "OrderPartition",
    "KDPartition",
    "HierarchyAncestorPartition",
    "DisjointPartition",
    "TwoPassSampler",
    "two_pass_summary",
]
