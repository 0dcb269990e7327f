"""Sharded build/merge engine and method registry.

The engine turns the repo's summaries into scalable infrastructure:

* :mod:`repro.engine.registry` -- declarative name -> builder registry
  shared by the harness, examples and benchmarks.
* :mod:`repro.engine.shard` -- partition a dataset into build shards.
* :mod:`repro.engine.builder` -- build per-shard summaries (in
  process or on a worker fleet) and fold them with the one fold,
  :func:`fold_snapshots`.
"""

from repro.engine import registry
from repro.engine.builder import (
    ShardedBuild,
    build_sharded,
    fold_snapshots,
)
from repro.engine.registry import available, build, get, register
from repro.engine.shard import shard_dataset, shard_indices

__all__ = [
    "ShardedBuild",
    "available",
    "build",
    "build_sharded",
    "fold_snapshots",
    "get",
    "register",
    "registry",
    "shard_dataset",
    "shard_indices",
]
