"""Partitions of the key domain induced by the pass-1 guide sample.

Each partition maps keys to cells so IO-AGGREGATE can co-locate
nearby keys -- ``cell_codes(coords)`` for a whole batch, ``cell_of(key)``
for one key -- and keeps enough structure (the kd partition as flat
node arrays) for the final aggregation of active keys.  With a guide
sample of size Omega(s log s), every cell has mass <= 1 w.h.p. (it is an
eps-net of the range space), which is what bounds the two-pass
discrepancy.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.aware.kd import KDNode, KDTree, build_kd_tree
from repro.structures.hierarchy import RadixHierarchy
from repro.structures.product import ProductDomain


def _key_column(coords: np.ndarray) -> np.ndarray:
    """First coordinate column of a 1-D key batch (accepts (n,) too)."""
    coords = np.asarray(coords)
    return coords[:, 0] if coords.ndim == 2 else coords


class OrderPartition:
    """Cells between consecutive guide keys of an ordered domain.

    Guide keys ``i_1 < ... < i_t`` induce cells ``(-inf, i_1]``,
    ``(i_j, i_{j+1}]`` and ``(i_t, +inf)`` -- ``t + 1`` cells total.
    """

    def __init__(self, guide_keys: Sequence[int]):
        self._boundaries = np.unique(np.asarray(guide_keys, dtype=np.int64))

    @property
    def num_cells(self) -> int:
        """Number of cells."""
        return self._boundaries.size + 1

    def cell_of(self, key) -> int:
        """Cell index of a key (1-D keys or 1-tuples accepted)."""
        value = key[0] if isinstance(key, tuple) else key
        return int(np.searchsorted(self._boundaries, value, side="left"))

    def cell_codes(self, coords: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`cell_of` over a key batch (same integers)."""
        return np.searchsorted(
            self._boundaries, _key_column(coords), side="left"
        ).astype(np.int64)


class KDPartition:
    """Leaves of a kd-tree built over the guide sample (product domains).

    Kept as flat arrays (``kd``); ``tree`` links nodes on first use.
    """

    def __init__(
        self,
        guide_coords: np.ndarray,
        guide_probs: np.ndarray,
        domain: Optional[ProductDomain] = None,
        split_rule: str = "median",
    ):
        guide_coords = np.atleast_2d(np.asarray(guide_coords))
        if guide_coords.shape[0] == 0:
            raise ValueError("guide sample is empty; cannot build partition")
        self.kd: KDTree = build_kd_tree(
            guide_coords,
            np.asarray(guide_probs, dtype=float),
            domain=domain,
            leaf_mass=1.0,
            split_rule=split_rule,
        )

    @cached_property
    def tree(self) -> KDNode:
        """The partition's kd tree as linked nodes (built on first use)."""
        return self.kd.root()

    def cell_of(self, key: Tuple[int, ...]) -> int:
        """Leaf cell id containing the key."""
        return self.tree.locate(key).cell_id

    def cell_codes(self, coords: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`cell_of` over a coordinate batch.

        Returns the same leaf cell ids as the per-key walk; all keys
        descend the tree's node arrays together, one depth per pass.
        """
        return self.kd.cell_ids(coords)


class HierarchyAncestorPartition:
    """Lowest-selected-ancestor cells of a hierarchy (Section 5).

    Selects every ancestor (including the leaf node itself) of every
    guide key; a key's cell is its deepest selected ancestor.  Yields
    Δ < 1 w.h.p. but the number of selected nodes grows with the
    hierarchy depth, so it is best for shallow hierarchies.
    """

    def __init__(self, hierarchy: RadixHierarchy, guide_keys: Sequence[int]):
        self._hierarchy = hierarchy
        selected: Set[Tuple[int, int]] = {(0, 0)}
        for key in guide_keys:
            key = int(key)
            selected.add((hierarchy.depth, key))
            for depth, node in hierarchy.ancestors(key):
                selected.add((depth, node))
        self._selected = selected
        # Per-depth sorted node arrays for the vectorized router.
        by_depth: Dict[int, List[int]] = {}
        for depth, node in selected:
            by_depth.setdefault(depth, []).append(node)
        self._selected_by_depth = {
            depth: np.sort(np.asarray(nodes, dtype=np.int64))
            for depth, nodes in by_depth.items()
        }

    @property
    def num_cells(self) -> int:
        """Number of selected nodes (upper bound on active keys held)."""
        return len(self._selected)

    def cell_of(self, key) -> Tuple[int, int]:
        """Deepest selected ancestor node of the key."""
        value = int(key[0] if isinstance(key, tuple) else key)
        h = self._hierarchy
        candidate = (h.depth, value)
        if candidate in self._selected:
            return candidate
        for depth, node in h.ancestors(value):
            if (depth, node) in self._selected:
                return (depth, node)
        return (0, 0)

    def cell_codes(self, coords: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`cell_of`, as ``depth * num_leaves + node``.

        One sorted-membership pass per hierarchy level, deepest first;
        each key takes the first (deepest) selected ancestor it hits.
        :meth:`decode_cell_code` recovers the ``(depth, node)`` tuple.
        """
        values = _key_column(coords)
        h = self._hierarchy
        stride = np.int64(h.num_leaves)
        codes = np.zeros(values.shape[0], dtype=np.int64)  # root = (0, 0)
        pending = np.ones(values.shape[0], dtype=bool)
        for depth in range(h.depth, 0, -1):
            selected = self._selected_by_depth.get(depth)
            if selected is None or not pending.any():
                continue
            rows = np.flatnonzero(pending)
            nodes = np.asarray(h.node_of(values[rows], depth), dtype=np.int64)
            pos = np.searchsorted(selected, nodes)
            hit = pos < selected.size
            hit[hit] = selected[pos[hit]] == nodes[hit]
            hit_rows = rows[hit]
            codes[hit_rows] = np.int64(depth) * stride + nodes[hit]
            pending[hit_rows] = False
        return codes

    def decode_cell_code(self, code: int) -> Tuple[int, int]:
        """The ``(depth, node)`` cell behind a :meth:`cell_codes` value."""
        stride = self._hierarchy.num_leaves
        return int(code) // stride, int(code) % stride


class DisjointPartition:
    """Cells for a flat partition structure (disjoint ranges).

    One cell per range label observed in the guide sample, plus one
    cell for every maximal run of unobserved labels between consecutive
    observed ones (at most ``2 s' + 1`` cells total).

    ``labeler`` (optional) maps a *key* to its range label so the
    partition can be used directly as a two-pass ``cell_of``.
    """

    def __init__(self, guide_labels: Sequence[int], labeler=None):
        self._seen = np.unique(np.asarray(guide_labels, dtype=np.int64))
        self._labeler = labeler

    @property
    def num_cells(self) -> int:
        """Number of distinct cells reachable."""
        return 2 * self._seen.size + 1

    def cell_of(self, label) -> Tuple[str, int]:
        """Cell of a label (or of a key when a labeler was supplied)."""
        if self._labeler is not None:
            label = self._labeler(label)
        value = int(label[0] if isinstance(label, tuple) else label)
        pos = int(np.searchsorted(self._seen, value, side="left"))
        if pos < self._seen.size and self._seen[pos] == value:
            return ("range", value)
        return ("gap", pos)

    def cell_codes(self, coords: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`cell_of`, as ``2 * pos + exact_match``.

        Observed labels get odd codes (``("range", value)``), gap runs
        even codes (``("gap", pos)``); distinct cells map to distinct
        codes.  When a labeler was supplied it is applied per row (the
        labeler is an arbitrary Python callable); the grouping itself
        stays vectorized.
        """
        if self._labeler is not None:
            rows = np.asarray(coords)
            if rows.ndim == 1:
                rows = rows.reshape(-1, 1)
            # Native-int key tuples, what Dataset.iter_items yields.
            values = np.asarray(
                [
                    int(self._labeler(tuple(int(x) for x in row)))
                    for row in rows
                ],
                dtype=np.int64,
            )
        else:
            values = _key_column(coords).astype(np.int64)
        pos = np.searchsorted(self._seen, values, side="left")
        exact = pos < self._seen.size
        exact[exact] = self._seen[pos[exact]] == values[exact]
        return 2 * pos.astype(np.int64) + exact

    def decode_cell_code(self, code: int) -> Tuple[str, int]:
        """The cell tuple behind a :meth:`cell_codes` value."""
        code = int(code)
        if code % 2:
            return ("range", int(self._seen[code // 2]))
        return ("gap", code // 2)
