"""KD-HIERARCHY (paper Algorithm 2): probability-balanced kd-trees.

The kd-tree partitions a d-dimensional key set by cutting axes in
round-robin order at the *weighted median* of the probability mass, so
that leaves ("unit cells") carry approximately equal mass.  Because the
axes rotate, any axis-parallel hyperplane cuts only O(s^((d-1)/d))
leaves (Lemma 6), which is what bounds the product-structure
discrepancy.

Hierarchy axes are cut along their DFS linearization (leaf numbering),
which is one valid linearization of the hierarchy; the paper allows
optimizing over all linearizations (Algorithm 2 line 13), a choice
this implementation leaves out.

The tree is built one depth at a time as flat arrays (:class:`KDTree`),
node for node the recursion of ``tests/oracles.py``, and doubles as the
two-pass locator (:meth:`KDTree.cell_ids`); linked :class:`KDNode`
objects exist only at API edges (:func:`build_kd_hierarchy`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.core.chain import run_starts
from repro.core.segments import (
    segment_cumsum,
    segment_layout,
    segment_sums,
    stable_partition,
)
from repro.structures.product import ProductDomain
from repro.structures.ranges import Box


@dataclass
class KDNode:
    """A node of the kd-hierarchy.

    Leaves carry ``indices`` (positions into the coordinate array the
    tree was built from) and a ``cell_id``; internal nodes carry the
    splitting ``axis`` and ``split_value`` (left children satisfy
    ``coord[axis] <= split_value``).  A root from
    :func:`build_kd_hierarchy` keeps the flat ``tree`` it came from.
    """

    mass: float
    box: Optional[Box] = None
    axis: int = -1
    split_value: int = 0
    left: Optional["KDNode"] = None
    right: Optional["KDNode"] = None
    indices: Optional[np.ndarray] = None
    cell_id: int = -1
    tree: Optional["KDTree"] = field(default=None, repr=False, compare=False)

    @property
    def is_leaf(self) -> bool:
        """Whether this node is a leaf cell."""
        return self.left is None

    def locate(self, point: Sequence[int]) -> "KDNode":
        """Walk a coordinate tuple down to its leaf cell."""
        node = self
        while not node.is_leaf:
            if point[node.axis] <= node.split_value:
                node = node.left
            else:
                node = node.right
        return node


def _median_cuts(vals, mass, seg, offsets, lengths):
    """``(ok, cut)`` per presorted segment: the first cut leaving both
    sides non-empty with the least mass imbalance (Algorithm 2 line 9),
    by the recursion's float ops; ``ok`` is False on constant segments.
    """
    cums = segment_cumsum(mass, offsets, lengths)
    change = np.flatnonzero(vals[1:] != vals[:-1]) + 1
    change = change[seg[change] == seg[change - 1]]
    owner = seg[change]
    total = cums[offsets + lengths - 1][owner]
    imbalance = np.abs(total - 2.0 * cums[change - 1])
    ok = np.zeros(lengths.size, dtype=bool)
    cut = np.zeros(lengths.size, dtype=np.int64)
    if change.size:
        runs = run_starts(owner)
        lowest = np.zeros(lengths.size)
        lowest[owner[runs]] = np.minimum.reduceat(imbalance, runs)
        hits = np.flatnonzero(imbalance == lowest[owner])
        best = hits[run_starts(owner[hits])]
        ok[owner[best]] = True
        cut[owner[best]] = vals[change[best] - 1]
    return ok, cut


@dataclass
class KDTree:
    """A KD-HIERARCHY as flat per-node arrays.

    Nodes are numbered depth by depth (depth ``k`` starts at
    ``depth_starts[k]``), left to right; children are ``child`` and
    ``child + 1`` (-1 at leaves), points ``rows[start:end]`` ascending.
    Cell ids run right to left, as the recursion meets the leaves:
    ``leaves[c]`` is cell ``c``'s node, ``cell`` a node's cell (-1 if
    internal).  ``lows``/``highs`` are ``None`` without a domain.
    """

    axis: np.ndarray
    split: np.ndarray
    child: np.ndarray
    mass: np.ndarray
    start: np.ndarray
    end: np.ndarray
    lows: Optional[np.ndarray]
    highs: Optional[np.ndarray]
    rows: np.ndarray
    depth_starts: np.ndarray
    leaves: np.ndarray
    cell: np.ndarray

    def cell_ids(self, coords: np.ndarray) -> np.ndarray:
        """Each row's :meth:`KDNode.locate` cell; rows descend together."""
        coords = np.atleast_2d(np.asarray(coords))
        node = np.zeros(coords.shape[0], dtype=np.int64)
        live = np.arange(coords.shape[0])
        while live.size:
            at = node[live]
            inner = self.child[at] >= 0
            live, at = live[inner], at[inner]
            node[live] = self.child[at] + (
                coords[live, self.axis[at]] > self.split[at]
            )
        return self.cell[node]

    def root(self) -> KDNode:
        """The tree as linked :class:`KDNode` objects (API edge)."""
        boxes = [None] * self.child.size
        if self.lows is not None:
            boxes = [
                Box(tuple(lo), tuple(hi))
                for lo, hi in zip(self.lows.tolist(), self.highs.tolist())
            ]
        nodes = [
            KDNode(mass=m, box=b, axis=a, split_value=v, cell_id=c)
            for m, b, a, v, c in zip(
                self.mass.tolist(), boxes, self.axis.tolist(),
                self.split.tolist(), self.cell.tolist(),
            )
        ]
        for node, child, start, end in zip(
            nodes, self.child.tolist(), self.start.tolist(), self.end.tolist()
        ):
            if child >= 0:
                node.left, node.right = nodes[child], nodes[child + 1]
            else:
                node.indices = self.rows[start:end].copy()
        nodes[0].tree = self
        return nodes[0]


def build_kd_tree(
    coords: np.ndarray,
    masses: np.ndarray,
    domain: Optional[ProductDomain] = None,
    leaf_mass: float = 1.0,
    split_rule: str = "median",
) -> KDTree:
    """Build the KD-HIERARCHY over a weighted point set, as flat arrays.

    Parameters
    ----------
    coords:
        ``(n, d)`` integer coordinates.
    masses:
        Per-point non-negative mass (IPPS probabilities for sampling;
        raw weights for query generation).
    domain:
        Optional product domain; when given, nodes carry their covering
        box (needed by the ``midpoint`` rule, partition cells and query
        generators).
    leaf_mass:
        Recursion stops when a cell's mass is <= this (the paper's unit
        cells use 1.0).  Use 0 to split all the way to single distinct
        points.
    split_rule:
        ``"median"`` (Algorithm 2) or ``"midpoint"`` (ablation).

    Each axis is stable-argsorted once; each depth stable-partitions
    the rows and axis orders of all its nodes, so every node sees the
    sorted values and ascending-row mass sums of the recursion.
    """
    coords = np.atleast_2d(np.asarray(coords))
    masses = np.asarray(masses, dtype=float)
    if coords.shape[0] != masses.shape[0]:
        raise ValueError("coords and masses must have matching length")
    if split_rule not in ("median", "midpoint"):
        raise ValueError(f"unknown split rule: {split_rule}")
    if split_rule == "midpoint" and domain is None:
        raise ValueError("midpoint splitting requires a domain")
    n, dims = coords.shape
    rows = np.arange(n)
    orders = [np.argsort(coords[:, a], kind="stable") for a in range(dims)]
    side = np.empty(n, dtype=bool)  # per-level split side of each point
    starts, lens = np.zeros(1, dtype=np.int64), np.full(1, n)
    lows = highs = np.zeros((1, dims), dtype=np.int64)
    if domain is not None:
        box = domain.full_box()
        lows = np.array([box.lows], dtype=np.int64)
        highs = np.array([box.highs], dtype=np.int64)
    levels, depth, first = [], 0, 0  # first: id of the level's first node
    while starts.size:
        pos, seg, offsets = segment_layout(starts, lens)
        mass = segment_sums(masses[rows[pos]], offsets, lens)
        axis = np.full(starts.size, -1, dtype=np.int64)
        split = np.zeros(starts.size, dtype=np.int64)
        open_ = (mass > leaf_mass) & (lens > 1)
        for offset in range(dims):
            a = (depth + offset) % dims
            nodes = np.flatnonzero(open_ & (axis < 0))
            if nodes.size == 0:
                break
            npos, nseg, noff = segment_layout(starts[nodes], lens[nodes])
            vals = coords[orders[a][npos], a]
            if split_rule == "median":
                ok, cut = _median_cuts(
                    vals, masses[orders[a][npos]], nseg, noff, lens[nodes]
                )
            else:
                lo, hi = lows[nodes, a], highs[nodes, a]
                cut = lo + ((hi - lo) >> 1)
                last = noff + lens[nodes] - 1
                ok = (lo < hi) & (vals[noff] <= cut) & (vals[last] > cut)
            axis[nodes[ok]], split[nodes[ok]] = a, cut[ok]
        inner = np.flatnonzero(axis >= 0)
        child = np.full(starts.size, -1, dtype=np.int64)
        first += starts.size
        child[inner] = first + 2 * np.arange(inner.size)
        levels.append((axis, split, child, mass, starts, lens, lows, highs))
        # Stable-partition the rows and every axis order of the inner
        # nodes' segments; the side of each point is scattered once so
        # the axis orders gather one bool instead of re-comparing.
        ipos, iseg, ioff = segment_layout(starts[inner], lens[inner])
        moved = rows[ipos]
        left = coords[moved, axis[inner][iseg]] <= split[inner][iseg]
        dest, n_left = stable_partition(left, iseg, ioff)
        rows[ipos[dest]] = moved
        side[moved] = left
        for a in range(dims):
            moved = orders[a][ipos]
            dest, _ = stable_partition(side[moved], iseg, ioff)
            orders[a][ipos[dest]] = moved
        ax, cut = axis[inner], split[inner]
        lo, hi = lows[inner, ax], highs[inner, ax]
        lows, highs = (np.repeat(b[inner], 2, axis=0) for b in (lows, highs))
        # A degenerate box side leaves both children the parent box.
        cuts = np.flatnonzero((lo <= cut) & (cut < hi))
        highs[2 * cuts, ax[cuts]] = cut[cuts]
        lows[2 * cuts + 1, ax[cuts]] = cut[cuts] + 1
        starts = np.column_stack((starts[inner], starts[inner] + n_left))
        lens = np.column_stack((n_left, lens[inner] - n_left))
        starts, lens = starts.ravel(), lens.ravel()
        depth += 1
    axis, split, child, mass, start, lens, lows, highs = (
        np.concatenate(column) for column in zip(*levels)
    )
    leaves = np.flatnonzero(axis < 0)
    leaves = leaves[np.argsort(start[leaves])[::-1]]
    cell = np.full(axis.size, -1, dtype=np.int64)
    cell[leaves] = np.arange(leaves.size)
    if domain is None:
        lows = highs = None
    return KDTree(
        axis=axis, split=split, child=child, mass=mass, start=start,
        end=start + lens, lows=lows, highs=highs, rows=rows,
        depth_starts=np.cumsum([0] + [level[0].size for level in levels]),
        leaves=leaves, cell=cell,
    )


def build_kd_hierarchy(
    coords: np.ndarray,
    masses: np.ndarray,
    domain: Optional[ProductDomain] = None,
    leaf_mass: float = 1.0,
    split_rule: str = "median",
) -> KDNode:
    """:func:`build_kd_tree` as linked nodes; cell ids run from 0."""
    return build_kd_tree(coords, masses, domain, leaf_mass, split_rule).root()


def kd_leaves(root: KDNode) -> List[KDNode]:
    """All leaf cells in ``cell_id`` order."""
    leaves: List[KDNode] = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            leaves.append(node)
        else:
            stack.append(node.right)
            stack.append(node.left)
    leaves.sort(key=lambda leaf: leaf.cell_id)
    return leaves


def kd_leaf_boxes(root: KDNode) -> List[Box]:
    """Boxes of all leaves (requires the tree to have been built with a domain)."""
    boxes = [leaf.box for leaf in kd_leaves(root)]
    if any(box is None for box in boxes):
        raise ValueError("tree was built without a domain; no boxes")
    return boxes


def kd_depth(root: KDNode) -> int:
    """Maximum leaf depth of the tree."""
    best = 0
    stack = [(root, 0)]
    while stack:
        node, depth = stack.pop()
        if node.is_leaf:
            best = max(best, depth)
        else:
            stack.append((node.left, depth + 1))
            stack.append((node.right, depth + 1))
    return best


def kd_cell_ids(root: KDNode, coords: np.ndarray) -> np.ndarray:
    """Each row's ``cell_id``, descending the flat tree of ``root``."""
    if root.tree is None:
        raise ValueError("kd_cell_ids needs a root from build_kd_hierarchy")
    return root.tree.cell_ids(coords)
