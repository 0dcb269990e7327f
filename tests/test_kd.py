"""Tests for KD-HIERARCHY (Algorithm 2)."""

import numpy as np
import pytest

import oracles
from repro.aware.kd import (
    build_kd_hierarchy,
    kd_cell_ids,
    kd_depth,
    kd_leaf_boxes,
    kd_leaves,
)
from repro.structures.hierarchy import BitHierarchy
from repro.structures.order import OrderedDomain
from repro.structures.product import ProductDomain


def make_points(seed, n=200, size=1024):
    rng = np.random.default_rng(seed)
    coords = rng.integers(0, size, size=(n, 2))
    masses = rng.random(n)
    return coords, masses


class TestBuild:
    def test_leaf_masses_bounded(self):
        coords, masses = make_points(0)
        root = build_kd_hierarchy(coords, masses, leaf_mass=1.0)
        for leaf in kd_leaves(root):
            # Leaves either have unit mass or could not be split further.
            assert leaf.mass <= 1.0 + 1e-9 or leaf.indices.size == 1

    def test_every_point_in_exactly_one_leaf(self):
        coords, masses = make_points(1)
        root = build_kd_hierarchy(coords, masses)
        seen = np.concatenate([leaf.indices for leaf in kd_leaves(root)])
        assert sorted(seen.tolist()) == list(range(len(coords)))

    def test_cell_ids_consecutive(self):
        coords, masses = make_points(2)
        root = build_kd_hierarchy(coords, masses)
        leaves = kd_leaves(root)
        assert [leaf.cell_id for leaf in leaves] == list(range(len(leaves)))

    def test_mass_conservation(self):
        coords, masses = make_points(3)
        root = build_kd_hierarchy(coords, masses)
        total = sum(leaf.mass for leaf in kd_leaves(root))
        assert total == pytest.approx(masses.sum())

    def test_balance_of_median_split(self):
        # With continuous-ish masses the root split should be near 50/50.
        coords, masses = make_points(4, n=500)
        root = build_kd_hierarchy(coords, masses, leaf_mass=masses.sum() / 2)
        assert not root.is_leaf
        ratio = root.left.mass / (root.left.mass + root.right.mass)
        assert 0.3 < ratio < 0.7

    def test_depth_logarithmic(self):
        coords, masses = make_points(5, n=512)
        masses = np.full(512, 0.5)
        root = build_kd_hierarchy(coords, masses, leaf_mass=1.0)
        # 256 unit cells: depth should be close to log2(256)=8, far from n.
        assert kd_depth(root) <= 2 * 8 + 4

    def test_duplicate_points_become_leaf(self):
        coords = np.tile(np.array([[7, 9]]), (20, 1))
        masses = np.full(20, 0.4)
        root = build_kd_hierarchy(coords, masses, leaf_mass=1.0)
        leaves = kd_leaves(root)
        assert len(leaves) == 1
        assert leaves[0].mass == pytest.approx(8.0)

    def test_single_point(self):
        root = build_kd_hierarchy(np.array([[3, 4]]), np.array([0.5]))
        assert root.is_leaf
        assert root.cell_id == 0

    def test_mismatched_inputs(self):
        with pytest.raises(ValueError):
            build_kd_hierarchy(np.zeros((3, 2)), np.zeros(2))

    def test_unknown_split_rule(self):
        with pytest.raises(ValueError):
            build_kd_hierarchy(np.zeros((3, 2)), np.ones(3), split_rule="x")

    def test_midpoint_requires_domain(self):
        with pytest.raises(ValueError):
            build_kd_hierarchy(
                np.zeros((3, 2)), np.ones(3), split_rule="midpoint"
            )


class TestBoxes:
    def domain(self, size=1024):
        return ProductDomain([OrderedDomain(size), OrderedDomain(size)])

    def test_leaf_boxes_partition_domain(self):
        coords, masses = make_points(6, n=300)
        root = build_kd_hierarchy(coords, masses, domain=self.domain())
        boxes = kd_leaf_boxes(root)
        volume = sum(box.volume for box in boxes)
        assert volume == 1024 * 1024
        for i, a in enumerate(boxes):
            for b in boxes[i + 1:]:
                assert not a.intersects(b)

    def test_boxes_contain_their_points(self):
        coords, masses = make_points(7, n=200)
        root = build_kd_hierarchy(coords, masses, domain=self.domain())
        for leaf in kd_leaves(root):
            for idx in leaf.indices:
                assert leaf.box.contains_point(coords[idx])

    def test_leaf_boxes_without_domain_raises(self):
        coords, masses = make_points(8, n=50)
        root = build_kd_hierarchy(coords, masses)
        if not root.is_leaf:
            with pytest.raises(ValueError):
                kd_leaf_boxes(root)

    def test_midpoint_rule_produces_dyadic_cuts(self):
        coords, masses = make_points(9, n=200)
        root = build_kd_hierarchy(
            coords, masses, domain=self.domain(), split_rule="midpoint"
        )
        # Walk the tree: every split value must be the midpoint of its box.
        stack = [root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                continue
            lo, hi = node.box.side(node.axis)
            assert node.split_value == lo + ((hi - lo) >> 1)
            stack.extend([node.left, node.right])


class TestLocate:
    def test_locate_matches_membership(self):
        coords, masses = make_points(10, n=300)
        domain = ProductDomain([OrderedDomain(1024), OrderedDomain(1024)])
        root = build_kd_hierarchy(coords, masses, domain=domain)
        rng = np.random.default_rng(0)
        probes = rng.integers(0, 1024, size=(100, 2))
        for point in probes:
            leaf = root.locate(point)
            assert leaf.box.contains_point(point)

    def test_kd_cell_ids_batch(self):
        coords, masses = make_points(11, n=150)
        root = build_kd_hierarchy(coords, masses)
        ids = kd_cell_ids(root, coords)
        for i, leaf_id in enumerate(ids):
            assert root.locate(coords[i]).cell_id == leaf_id

    def test_points_locate_to_their_leaf(self):
        coords, masses = make_points(12, n=150)
        root = build_kd_hierarchy(coords, masses)
        for leaf in kd_leaves(root):
            for idx in leaf.indices:
                assert root.locate(coords[idx]).cell_id == leaf.cell_id


class TestHierarchicalAxes:
    def test_hierarchy_axis_splits_respect_linearization(self):
        # Hierarchy axes split along the leaf numbering (the DFS
        # linearization), so the tree builds without error and cells
        # remain aligned intervals of leaves per axis.
        rng = np.random.default_rng(13)
        domain = ProductDomain([BitHierarchy(10), BitHierarchy(10)])
        coords = rng.integers(0, 1024, size=(200, 2))
        masses = rng.random(200)
        root = build_kd_hierarchy(coords, masses, domain=domain)
        boxes = kd_leaf_boxes(root)
        assert sum(box.volume for box in boxes) == 1024 * 1024


class TestOracleIdentity:
    """The level-synchronous build is the per-node recursion, bit for bit.

    Production ``build_kd_hierarchy`` is compared node for node with
    the Algorithm 2 recursion in ``tests/oracles.py``: same shape, and
    per node the same axis, split value, mass (bitwise), cell id, leaf
    point set and box.  Side-4 domains force duplicate points, which
    stop the split on every axis.
    """

    SEEDS = range(40)
    LEAF_MASSES = (0.0, 1.0, 2.5)

    @staticmethod
    def assert_same_tree(got, expect):
        stack = [(got, expect)]
        while stack:
            a, b = stack.pop()
            assert a.is_leaf == b.is_leaf
            assert (a.axis, a.split_value, a.cell_id) == (
                b.axis, b.split_value, b.cell_id
            )
            assert oracles.same_bits([a.mass], [b.mass])
            assert a.box == b.box
            if a.is_leaf:
                assert sorted(a.indices.tolist()) == sorted(
                    b.indices.tolist()
                )
            else:
                stack.append((a.left, b.left))
                stack.append((a.right, b.right))

    @pytest.mark.parametrize("dims", [1, 2, 3])
    @pytest.mark.parametrize(
        "split_rule, side",
        [
            ("median", None),
            ("median", 1024),
            ("median", 4),
            ("midpoint", 1024),
            ("midpoint", 4),
        ],
    )
    def test_matches_recursion(self, dims, split_rule, side):
        domain = (
            None if side is None
            else ProductDomain([OrderedDomain(side)] * dims)
        )
        for seed in self.SEEDS:
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 120))
            coords = rng.integers(0, side or 1024, size=(n, dims))
            masses = rng.random(n)
            for leaf_mass in self.LEAF_MASSES:
                kwargs = dict(
                    domain=domain, leaf_mass=leaf_mass, split_rule=split_rule
                )
                self.assert_same_tree(
                    build_kd_hierarchy(coords, masses, **kwargs),
                    oracles.build_kd_hierarchy(coords, masses, **kwargs),
                )
