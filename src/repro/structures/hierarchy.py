"""Hierarchy structures over integer key domains.

A hierarchy attaches keys to the leaves of a rooted tree; the ranges
``R`` of the structure are the sets of leaves below internal nodes
(IP-address prefixes, geographic areas, trouble-code subtrees, ...).

Both hierarchy flavours used by the paper's experiments are *radix*
hierarchies: every node at a given depth has the same number of
children, so leaves can be numbered 0..N-1 in DFS order and the node at
depth ``d`` containing leaf ``k`` is simply ``k // span(d)`` where
``span(d)`` is the number of leaves under a depth-``d`` node.  This
module implements that shared machinery once (:class:`RadixHierarchy`)
with two front-ends:

* :class:`BitHierarchy` -- the implicit binary hierarchy over ``bits``-bit
  integers (IP addresses; nodes are prefixes).
* :class:`ExplicitHierarchy` -- mixed-radix hierarchy with a per-level
  branching factor (the technical-ticket code hierarchies).
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence, Tuple

import numpy as np


class RadixHierarchy:
    """Rooted tree over leaves ``0..num_leaves-1`` with uniform per-level fanout.

    Parameters
    ----------
    branchings:
        ``branchings[d]`` is the number of children of every node at
        depth ``d`` (the root is depth 0).  The tree has
        ``len(branchings)`` levels below the root and
        ``prod(branchings)`` leaves.
    """

    def __init__(self, branchings: Sequence[int]):
        if not branchings:
            raise ValueError("hierarchy needs at least one level")
        if any(b < 2 for b in branchings):
            raise ValueError("branching factors must be >= 2")
        self._branchings = tuple(int(b) for b in branchings)
        # _spans[d] = number of leaves under a node at depth d.
        spans = [1]
        for b in reversed(self._branchings):
            spans.append(spans[-1] * b)
        self._spans = tuple(reversed(spans))

    @property
    def branchings(self) -> Tuple[int, ...]:
        """Per-level branching factors, root first."""
        return self._branchings

    @property
    def depth(self) -> int:
        """Depth of the leaves (number of levels below the root)."""
        return len(self._branchings)

    @property
    def num_leaves(self) -> int:
        """Total number of leaves (the size of the key domain)."""
        return self._spans[0]

    @property
    def size(self) -> int:
        """Alias for :attr:`num_leaves`; the axis domain size."""
        return self.num_leaves

    def span(self, depth: int) -> int:
        """Number of leaves under a single node at ``depth``."""
        return self._spans[depth]

    def node_of(self, key, depth: int):
        """Canonical id of the depth-``depth`` ancestor of leaf ``key``.

        Accepts scalars or numpy arrays.
        """
        return key // self._spans[depth]

    def node_interval(self, depth: int, node: int) -> Tuple[int, int]:
        """Half-open leaf interval ``[lo, hi)`` covered by a node."""
        span = self._spans[depth]
        lo = int(node) * span
        return lo, lo + span

    def path(self, key: int) -> Tuple[int, ...]:
        """Root-to-leaf child indices of ``key`` (mixed-radix digits)."""
        digits = []
        k = int(key)
        for d in range(self.depth):
            span = self._spans[d + 1]
            digits.append(k // span)
            k %= span
        return tuple(digits)

    def leaf_of_path(self, path: Sequence[int]) -> int:
        """Inverse of :meth:`path` (requires a full root-to-leaf path)."""
        if len(path) != self.depth:
            raise ValueError("path must reach a leaf")
        key = 0
        for d, digit in enumerate(path):
            if not 0 <= digit < self._branchings[d]:
                raise ValueError("path digit out of range")
            key += digit * self._spans[d + 1]
        return key

    def lca_depth(self, key_a: int, key_b: int) -> int:
        """Depth of the lowest common ancestor of two leaves."""
        if not (0 <= key_a < self.num_leaves and 0 <= key_b < self.num_leaves):
            raise ValueError("keys out of domain")
        depth = 0
        while depth < self.depth and self.node_of(key_a, depth + 1) == self.node_of(
            key_b, depth + 1
        ):
            depth += 1
        return depth

    def split_depth(self, key_lo: int, key_hi: int) -> int:
        """Deepest depth at which ``key_lo`` and ``key_hi`` share a node.

        Identical to :meth:`lca_depth` but computed arithmetically, and
        intended for the bottom-up aggregation recursion where
        ``key_lo <= key_hi`` are the extremes of a sorted key group.
        """
        return self.lca_depth(key_lo, key_hi)

    def ancestors(self, key: int) -> Iterator[Tuple[int, int]]:
        """Yield ``(depth, node)`` for every proper ancestor, deepest first."""
        for depth in range(self.depth - 1, -1, -1):
            yield depth, int(self.node_of(key, depth))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(branchings={self._branchings})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RadixHierarchy)
            and self._branchings == other._branchings
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._branchings))


class BitHierarchy(RadixHierarchy):
    """Implicit binary hierarchy over ``bits``-bit integer keys.

    Nodes at depth ``d`` are the ``d``-bit prefixes; this is the IP
    address hierarchy of the paper's network data set (``bits=32``).
    """

    def __init__(self, bits: int):
        if bits < 1:
            raise ValueError("bits must be >= 1")
        self._bits = int(bits)
        super().__init__([2] * self._bits)

    @property
    def bits(self) -> int:
        """Number of bits (leaf depth)."""
        return self._bits

    def node_of(self, key, depth: int):
        shift = self._bits - depth
        return key >> shift if not isinstance(key, np.ndarray) else key >> shift

    def span(self, depth: int) -> int:
        return 1 << (self._bits - depth)

    def prefix_str(self, depth: int, node: int) -> str:
        """Human-readable binary prefix, e.g. ``'1011*'``."""
        if depth == 0:
            return "*"
        return format(int(node), f"0{depth}b") + "*"

    def lca_depth(self, key_a: int, key_b: int) -> int:
        if not (0 <= key_a < self.num_leaves and 0 <= key_b < self.num_leaves):
            raise ValueError("keys out of domain")
        diff = int(key_a) ^ int(key_b)
        if diff == 0:
            return self._bits
        return self._bits - diff.bit_length()


class ExplicitHierarchy(RadixHierarchy):
    """Mixed-radix hierarchy with per-level branching factors.

    Models the paper's technical-ticket hierarchies ("hierarchical with
    varying branching factor at each level, representing a total of
    approximately 2^24 possibilities").
    """

    @classmethod
    def with_approx_leaves(
        cls, target_leaves: int, branching_choices: Sequence[int] = (2, 4, 8, 16)
    ) -> "ExplicitHierarchy":
        """Build a varying-branching hierarchy with ~``target_leaves`` leaves.

        Cycles through ``branching_choices`` until the leaf count
        reaches ``target_leaves``; the produced domain size is the first
        product of the cycled factors that is >= the target.
        """
        if target_leaves < 2:
            raise ValueError("target_leaves must be >= 2")
        branchings = []
        total = 1
        i = 0
        while total < target_leaves:
            b = branching_choices[i % len(branching_choices)]
            branchings.append(b)
            total *= b
            i += 1
        return cls(branchings)

    @property
    def num_levels(self) -> int:
        """Number of levels below the root (same as :attr:`depth`)."""
        return self.depth


def common_node_depth(hierarchy: RadixHierarchy, keys: np.ndarray) -> int:
    """Deepest depth at which all ``keys`` fall under one node.

    Used by the induced-tree recursion: for a *sorted* key group this is
    the LCA depth of the extremes, which equals the LCA depth of the
    whole group.
    """
    if keys.size == 0:
        raise ValueError("empty key set has no common node")
    return hierarchy.lca_depth(int(keys.min()), int(keys.max()))


def induced_node_count(hierarchy: RadixHierarchy, keys: np.ndarray) -> int:
    """Number of internal nodes of the hierarchy induced by ``keys``.

    The induced hierarchy keeps only nodes with at least one key below
    them, contracting unary chains.  Useful for sizing expectations in
    tests: a set of n distinct leaves induces at most ``n - 1`` branching
    nodes.
    """
    uniq = np.unique(np.asarray(keys))
    if uniq.size <= 1:
        return 0
    count = 0
    stack = [(uniq, 0)]
    while stack:
        group, depth = stack.pop()
        if group.size <= 1:
            continue
        depth = max(depth, common_node_depth(hierarchy, group))
        if depth >= hierarchy.depth:
            continue
        child_ids = hierarchy.node_of(group, depth + 1)
        boundaries = np.flatnonzero(np.diff(child_ids)) + 1
        if boundaries.size == 0:
            # All in one child: contracted unary chain, descend.
            stack.append((group, depth + 1))
            continue
        count += 1
        pieces = np.split(group, boundaries)
        for piece in pieces:
            stack.append((piece, depth + 1))
    return count


def hierarchy_entropy(hierarchy: RadixHierarchy, keys: np.ndarray,
                      weights: np.ndarray, depth: int) -> float:
    """Shannon entropy (bits) of the weight distribution over depth-``depth`` nodes.

    A convenience diagnostic for data generators: low entropy at shallow
    depths indicates strong hierarchical clustering.
    """
    nodes = hierarchy.node_of(np.asarray(keys), depth)
    order = np.argsort(nodes, kind="stable")
    nodes_sorted = nodes[order]
    w_sorted = np.asarray(weights, dtype=float)[order]
    boundaries = np.flatnonzero(np.diff(nodes_sorted)) + 1
    sums = np.add.reduceat(w_sorted, np.concatenate(([0], boundaries)))
    total = sums.sum()
    if total <= 0:
        return 0.0
    probs = sums / total
    probs = probs[probs > 0]
    return float(-(probs * np.log2(probs)).sum())
