"""Shard-parallel summary construction folded with mergeable summaries.

``build_sharded`` is the engine's entry point: partition a dataset
(:mod:`repro.engine.shard`), build one summary per shard -- serially
in process, or on the worker fleet of a
:class:`~repro.distributed.coordinator.Coordinator` passed in -- and
fold the shard summaries into one with :func:`fold_snapshots`.  Both
paths draw the same per-shard seeds, run the same registry builders
and fold with the same generator, so their outputs are bit-identical.
Because every fold preserves Horvitz-Thompson unbiasedness (see
:meth:`repro.core.estimator.SampleSummary.from_shards`), the folded
summary is statistically equivalent to a monolithic build.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.estimator import SampleSummary
from repro.core.types import Dataset
from repro.engine import registry
from repro.engine.shard import shard_dataset

#: Upper bound on default shard and fleet sizes.
_MAX_DEFAULT_WORKERS = 8


def default_workers() -> int:
    """The available parallelism, capped at ``_MAX_DEFAULT_WORKERS``."""
    return max(1, min(os.cpu_count() or 1, _MAX_DEFAULT_WORKERS))


def fold_snapshots(
    snapshots: Sequence,
    *,
    size: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
):
    """Fold summaries of disjoint data into one queryable summary.

    The one fold every site uses: sharded builds, the stream engine's
    window folds and the distributed coordinator's snapshot collection.
    Empty snapshots are the merge identity -- and their placeholders
    (an empty exact store for buffered methods) need not even share the
    non-empty snapshots' summary type -- so they are dropped before
    folding; an all-empty fold returns the first snapshot unchanged.
    Sample summaries fold in one VarOpt stage down to at most ``size``
    keys (:meth:`SampleSummary.from_shards`); other summaries fold with
    their exact pairwise ``merge``.
    """
    snapshots = list(snapshots)
    if not snapshots:
        raise ValueError("nothing to fold")
    non_empty = [
        snap for snap in snapshots if getattr(snap, "size", 0) > 0
    ]
    if not non_empty:
        return snapshots[0]
    if all(isinstance(snap, SampleSummary) for snap in non_empty):
        return SampleSummary.from_shards(non_empty, s=size, rng=rng)
    folded = non_empty[0]
    for snap in non_empty[1:]:
        folded = folded.merge(snap)
    return folded


@dataclass
class ShardedBuild:
    """Outcome of a sharded build: the folded summary plus provenance.

    ``wire`` holds what a fleet build's own frames put on the wire
    (``frames_sent``, ``bytes_sent``, ``bytes_received``, ``shm_bytes``;
    see :meth:`~repro.distributed.coordinator.Coordinator.run_tasks`);
    it stays empty for in-process builds.
    """

    summary: object
    num_shards: int
    shard_sizes: List[int] = field(default_factory=list)
    wire: Dict[str, int] = field(default_factory=dict)


def build_sharded(
    method: Union[str, Callable],
    dataset: Dataset,
    s: int,
    rng: Optional[np.random.Generator] = None,
    *,
    num_shards: Optional[int] = None,
    strategy: str = "contiguous",
    coordinator=None,
) -> ShardedBuild:
    """Partition, build per shard, and fold.

    Parameters
    ----------
    method:
        A registry name, or a raw builder callable ``(dataset, s, rng)
        -> summary`` (built in process; only names reach a fleet).
    dataset:
        The full dataset; each shard sees a row-disjoint subset over
        the same domain.
    s:
        Per-shard summary size, and the size the folded sample is
        re-aggregated down to.
    rng:
        Seeds the per-shard generators and the fold; omit for a
        nondeterministic build.
    num_shards:
        Defaults to the coordinator's fleet size, or to the available
        parallelism (capped at 8) without one.
    strategy:
        Sharding strategy (see :mod:`repro.engine.shard`).
    coordinator:
        A :class:`~repro.distributed.coordinator.Coordinator` whose
        workers build the shards (with its retries and reassignment);
        ``None`` builds them serially in process.  The output does not
        depend on which path or transport built it.
    """
    if rng is None:
        rng = np.random.default_rng()
    if num_shards is None:
        num_shards = (
            coordinator.num_workers if coordinator is not None
            else default_workers()
        )
    shards = shard_dataset(dataset, num_shards, strategy=strategy)
    if not shards:
        shards = [dataset]
    if (
        len(shards) > 1
        and isinstance(method, str)
        and not registry.is_mergeable(method)
    ):
        raise ValueError(
            f"method {method!r} does not build mergeable summaries; "
            "use num_shards=1 or a mergeable method"
        )
    seeds = [int(seed) for seed in rng.integers(0, 2**63, size=len(shards))]
    wire: Dict[str, int] = {}
    if coordinator is not None:
        if not isinstance(method, str):
            raise TypeError("a fleet builds registry methods by name only")
        summaries = coordinator.build_shards(
            method, shards, s, seeds, wire=wire
        )
    else:
        builder = registry.get(method) if isinstance(method, str) else method
        summaries = [
            builder(shard, s, np.random.default_rng(seed))
            for shard, seed in zip(shards, seeds)
        ]
    return ShardedBuild(
        summary=fold_snapshots(summaries, size=s, rng=rng),
        num_shards=len(shards),
        shard_sizes=[getattr(summary, "size", 0) for summary in summaries],
        wire=wire,
    )
