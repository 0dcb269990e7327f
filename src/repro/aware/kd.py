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

The tree doubles as a locator (``locate`` walks a point to its leaf),
which the two-pass pipeline uses as its partition of the key domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.structures.product import ProductDomain
from repro.structures.ranges import Box


@dataclass
class KDNode:
    """A node of the kd-hierarchy.

    Leaves carry ``indices`` (positions into the coordinate array the
    tree was built from) and a ``cell_id``; internal nodes carry the
    splitting ``axis`` and ``split_value`` (left children satisfy
    ``coord[axis] <= split_value``).
    """

    mass: float
    box: Optional[Box] = None
    axis: int = -1
    split_value: int = 0
    left: Optional["KDNode"] = None
    right: Optional["KDNode"] = None
    indices: Optional[np.ndarray] = None
    cell_id: int = -1

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


def _presorted_median_cut(
    sorted_vals: np.ndarray, sorted_mass: np.ndarray
) -> Optional[Tuple[int, float]]:
    """Best cut of a presorted axis, or ``None`` if it is constant.

    Returns ``(split_value, imbalance)`` where left = ``value <=
    split_value`` and right are both non-empty and the absolute
    difference of their masses is minimal (Algorithm 2 line 9).  The
    per-node recursion in ``tests/oracles.py`` runs this same float-op
    sequence after sorting each node itself, which is what lets
    ``tests/test_kd.py`` pin the two trees bit for bit.
    """
    if sorted_vals[0] == sorted_vals[-1]:
        return None
    # Candidate cuts lie between runs of distinct values.
    change = np.flatnonzero(np.diff(sorted_vals)) + 1
    cums = np.cumsum(sorted_mass)
    total = cums[-1]
    left_masses = cums[change - 1]
    imbalance = np.abs(total - 2.0 * left_masses)
    best = int(np.argmin(imbalance))
    split_value = int(sorted_vals[change[best] - 1])
    return split_value, float(imbalance[best])


def build_kd_hierarchy(
    coords: np.ndarray,
    masses: np.ndarray,
    domain: Optional[ProductDomain] = None,
    leaf_mass: float = 1.0,
    split_rule: str = "median",
) -> KDNode:
    """Build the KD-HIERARCHY over a weighted point set.

    Parameters
    ----------
    coords:
        ``(n, d)`` integer coordinates.
    masses:
        Per-point non-negative mass (IPPS probabilities for sampling;
        raw weights for query generation).
    domain:
        Optional product domain; when given, nodes carry their covering
        :class:`Box` (needed by the ``midpoint`` rule, partition cells
        and query generators).
    leaf_mass:
        Recursion stops when a cell's mass is <= this (the paper's unit
        cells use 1.0).  Use 0 to split all the way to single distinct
        points.
    split_rule:
        ``"median"`` (Algorithm 2) or ``"midpoint"`` (ablation).

    Returns
    -------
    The root :class:`KDNode`; leaves have consecutive ``cell_id`` values
    starting at 0.
    """
    coords = np.atleast_2d(np.asarray(coords))
    masses = np.asarray(masses, dtype=float)
    if coords.shape[0] != masses.shape[0]:
        raise ValueError("coords and masses must have matching length")
    if split_rule not in ("median", "midpoint"):
        raise ValueError(f"unknown split rule: {split_rule}")
    if split_rule == "midpoint" and domain is None:
        raise ValueError("midpoint splitting requires a domain")
    return _build_kd_level_synchronous(
        coords, masses, domain, leaf_mass, split_rule
    )


def _build_kd_level_synchronous(
    coords: np.ndarray,
    masses: np.ndarray,
    domain: Optional[ProductDomain],
    leaf_mass: float,
    split_rule: str,
) -> KDNode:
    """Level-synchronous presorted kd build.

    Each axis is stable-argsorted *once*; every split thereafter only
    stable-partitions the per-axis orders with boolean masks, so a
    node's values arrive at its split already sorted (stable
    partitioning preserves relative order, and the initial stable sort
    breaks ties by row -- the exact permutation a per-node
    ``argsort(values, kind="stable")`` produces).  All nodes of one
    depth are processed per sweep; per-node sums and cumsums run on
    the same gathered arrays in the same order as the per-node
    recursion of Algorithm 2 (the oracle in ``tests/oracles.py``), so
    masses, split choices and the resulting tree are bit-identical to
    it.  Cell ids are assigned by replaying the recursion's stack
    order over the finished tree.
    """
    n, dims = coords.shape
    root_box = domain.full_box() if domain is not None else None
    root = KDNode(mass=float(masses.sum()), box=root_box)
    rows = np.arange(n)
    orders = [np.argsort(coords[:, a], kind="stable") for a in range(dims)]
    side = np.empty(n, dtype=bool)  # per-level split side of each point
    level: List[Tuple[KDNode, int, int]] = [(root, 0, n)]
    depth = 0
    while level:
        next_level: List[Tuple[KDNode, int, int]] = []
        for node, start, end in level:
            seg = rows[start:end]
            node.mass = float(masses[seg].sum())
            if node.mass <= leaf_mass or seg.size <= 1:
                node.indices = seg.copy()
                continue
            split = None
            for offset in range(dims):
                axis = (depth + offset) % dims
                order_seg = orders[axis][start:end]
                values = coords[order_seg, axis]  # presorted ascending
                if split_rule == "midpoint":
                    lo, hi = node.box.side(axis)
                    if lo >= hi:
                        continue
                    mid = (lo + hi) // 2
                    if values[0] > mid or values[-1] <= mid:
                        continue
                    split = (axis, mid)
                    break
                cut = _presorted_median_cut(values, masses[order_seg])
                if cut is None:
                    continue
                split = (axis, cut[0])
                break
            if split is None:
                # Every axis is constant on this cell: duplicate points.
                node.indices = seg.copy()
                continue
            axis, split_value = split
            node.axis = axis
            node.split_value = split_value
            left_box = right_box = None
            if node.box is not None:
                lo, hi = node.box.side(axis)
                if lo <= split_value < hi:
                    left_box, right_box = node.box.split(axis, split_value)
                else:  # degenerate box side; children inherit the box
                    left_box = right_box = node.box
            node.left = KDNode(mass=0.0, box=left_box)
            node.right = KDNode(mass=0.0, box=right_box)
            # Stable-partition the row set and every axis order of this
            # segment in place (both halves are gathered before the
            # write-back, the slices being views into the same buffers).
            # The split side of each point is scattered into a global
            # boolean once, so the per-axis partitions gather one bool
            # instead of re-comparing coordinates.
            left_mask = coords[seg, axis] <= split_value
            n_left = int(left_mask.sum())
            side[seg] = left_mask
            seg_left, seg_right = seg[left_mask], seg[~left_mask]
            rows[start:start + n_left] = seg_left
            rows[start + n_left:end] = seg_right
            for a in range(dims):
                order_seg = orders[a][start:end]
                mask = side[order_seg]
                part_left, part_right = order_seg[mask], order_seg[~mask]
                orders[a][start:start + n_left] = part_left
                orders[a][start + n_left:end] = part_right
            next_level.append((node.left, start, start + n_left))
            next_level.append((node.right, start + n_left, end))
        level = next_level
        depth += 1
    # Cell ids in the recursion's pop order (right child explored first).
    next_cell_id = 0
    stack = [root]
    while stack:
        node = stack.pop()
        if node.is_leaf:
            node.cell_id = next_cell_id
            next_cell_id += 1
        else:
            stack.append(node.left)
            stack.append(node.right)
    return root


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
    boxes = []
    for leaf in kd_leaves(root):
        if leaf.box is None:
            raise ValueError("tree was built without a domain; no boxes")
        boxes.append(leaf.box)
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
    """Locate many points: the ``cell_id`` of each coordinate row.

    Vectorized descent: instead of walking each point down the tree,
    every node partitions its incident point-index set with one boolean
    mask, so the total work is O(n * depth) NumPy element operations
    plus O(#nodes) Python steps.  Bit-identical to calling
    :meth:`KDNode.locate` per row.
    """
    coords = np.atleast_2d(np.asarray(coords))
    out = np.empty(coords.shape[0], dtype=np.int64)
    stack: List[Tuple[KDNode, np.ndarray]] = [
        (root, np.arange(coords.shape[0]))
    ]
    while stack:
        node, rows = stack.pop()
        if rows.size == 0:
            continue
        if node.is_leaf:
            out[rows] = node.cell_id
            continue
        left = coords[rows, node.axis] <= node.split_value
        stack.append((node.left, rows[left]))
        stack.append((node.right, rows[~left]))
    return out
