"""Incremental summary construction: native streamers + buffered rebuilds.

Two ways to keep a summary of a live feed:

* **Native** -- the structure itself is updatable: the VarOpt reservoir
  (``obliv``, which folds each micro-batch into its sample with one
  threshold and one aggregation chain), the exact store (``exact``),
  Count-Sketch tables (``sketch``), and the classic streaming q-digest
  (``qdigest-stream``).  Updates are cheap and snapshots are
  effectively free.
* **Buffered rebuild** -- batch-only builders (the structure-aware
  samplers, wavelets, the 2-D q-digest) stream through
  :class:`BufferedRebuildSummary`, which buffers the feed and re-runs
  the batch build with *geometric amortization*: an automatic rebuild
  fires when the buffered data has grown by ``growth`` (default 2x)
  since the last build, so total rebuild work over a stream of n items
  is ``O(build(n) * growth / (growth - 1))`` -- a constant factor over
  one monolithic build -- instead of one build per batch.

:func:`incremental_summary` resolves a registry method name to the
right one of the two, so the stream engine routes *every* registered
method without knowing which camp it is in.

Seed derivation
---------------
Streaming reproducibility requires that no two consumers share one
``Generator`` (shared state makes "identically seeded" engines
diverge; see :class:`repro.core.varopt.StreamVarOpt`).  Every
randomized component therefore derives an independent child seed with
:func:`derive_seed` from the engine's root seed and a stable path --
``(method, pane_index)`` for pane samplers, ``("fold", method, ...)``
for merge randomness -- so two engines built from the same root seed
and fed the same stream are reproducibly identical.
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, Union

import numpy as np

from repro.core.types import Dataset
from repro.core.varopt import StreamVarOpt
from repro.engine import registry
from repro.summaries.base import IncrementalSummary
from repro.summaries.exact import ExactSummary
from repro.summaries.qdigest_stream import StreamingQDigest
from repro.summaries.sketch import DEFAULT_HASH_SEED, DyadicSketchSummary

_SEED_MASK = (1 << 63) - 1


def derive_seed(root: int, *path) -> int:
    """Deterministic 64-bit child seed from a root seed and a path.

    ``path`` elements may be ints or strings (strings are CRC32-mixed,
    so the derivation is stable across processes and Python versions).
    Distinct paths give statistically independent seeds
    (:class:`numpy.random.SeedSequence` underneath).
    """
    words = [int(root) & _SEED_MASK]
    for part in path:
        if isinstance(part, str):
            words.append(zlib.crc32(part.encode("utf-8")))
        else:
            words.append(int(part) & _SEED_MASK)
    state = np.random.SeedSequence(words).generate_state(1, dtype=np.uint64)
    return int(state[0])


class BufferedRebuildSummary(IncrementalSummary):
    """Stream adapter for batch-only builders with geometric rebuilds.

    Parameters
    ----------
    builder:
        A registry method name or a raw builder callable
        ``(dataset, size, rng) -> summary``.
    domain:
        The key domain of the stream (shards of one stream share it).
    size:
        Summary size target passed to every rebuild.
    seed:
        Root seed; rebuild ``k`` uses the derived child seed
        ``derive_seed(seed, "rebuild", k)``, so the adapter is
        reproducible under identical update sequences.
    growth:
        Automatic-rebuild spacing: rebuild when the buffer exceeds
        ``growth`` times the size at the last build.
    min_buffer:
        No automatic rebuild before this many items (snapshot-forced
        rebuilds ignore it).
    stale_fraction:
        Staleness :meth:`snapshot` tolerates: a snapshot reuses the
        last build while the unbuilt tail is at most this fraction of
        the built size.  0 (default) means snapshots are always fresh;
        raising it trades bounded staleness for fewer rebuilds under
        frequent queries.
    """

    def __init__(
        self,
        builder: Union[str, Callable],
        domain,
        size: int,
        seed: int = 0,
        *,
        growth: float = 2.0,
        min_buffer: int = 1024,
        stale_fraction: float = 0.0,
    ):
        if growth <= 1.0:
            raise ValueError("growth must be > 1 for geometric amortization")
        if stale_fraction < 0:
            raise ValueError("stale_fraction must be non-negative")
        self._builder = (
            registry.get(builder) if isinstance(builder, str) else builder
        )
        self._domain = domain
        self._size = int(size)
        self._seed = int(seed)
        self._growth = float(growth)
        self._min_buffer = int(min_buffer)
        self._stale_fraction = float(stale_fraction)
        # The buffered stream itself is an incremental exact store.
        self._buffer = ExactSummary.empty(domain.dims)
        self._built = None
        self._built_n = 0
        self._rebuilds = 0

    # ------------------------------------------------------------------
    # Incremental summary protocol
    # ------------------------------------------------------------------
    def update(self, keys, weights) -> None:
        """Buffer one micro-batch; rebuild when the buffer has doubled."""
        self._buffer.update(keys, weights)
        threshold = max(self._min_buffer, int(self._growth * self._built_n))
        if self.items_buffered >= threshold:
            self._rebuild()

    def snapshot(self):
        """The batch summary of (almost) everything buffered so far.

        Rebuilds first when the unbuilt tail exceeds the configured
        ``stale_fraction``; with the default 0 the snapshot always
        reflects every update.  An empty stream snapshots to an empty
        exact store (zero on every query).
        """
        if self.items_buffered == 0:
            return ExactSummary.empty(self._domain.dims)
        tail = self.items_buffered - self._built_n
        if self._built is None or tail > self._stale_fraction * self._built_n:
            self._rebuild()
        return self._built

    @property
    def version(self) -> int:
        """Counter bumped on every buffered batch (the buffer's)."""
        return self._buffer.version

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @property
    def items_buffered(self) -> int:
        """Total items buffered (built + unbuilt tail)."""
        return self._buffer.size

    @property
    def rebuild_count(self) -> int:
        """Number of batch builds run so far (the amortization metric)."""
        return self._rebuilds

    def _rebuild(self) -> None:
        dataset = Dataset(
            coords=self._buffer.coords,
            weights=self._buffer.weights,
            domain=self._domain,
        )
        rng = np.random.default_rng(
            derive_seed(self._seed, "rebuild", self._rebuilds)
        )
        self._built = self._builder(dataset, self._size, rng)
        self._built_n = dataset.n
        self._rebuilds += 1


# ----------------------------------------------------------------------
# Method-name resolution
# ----------------------------------------------------------------------

def _make_obliv(domain, size: int, seed: int) -> StreamVarOpt:
    return StreamVarOpt(size, np.random.default_rng(seed))


def _make_exact(domain, size: int, seed: int) -> ExactSummary:
    return ExactSummary.empty(domain.dims)


def _make_sketch(domain, size: int, seed: int) -> DyadicSketchSummary:
    # Hash functions come from the global default seed -- NOT from the
    # pane seed -- so panes, shards and batch builds all merge.
    return DyadicSketchSummary.for_domain(
        domain, size, hash_seed=DEFAULT_HASH_SEED
    )


def _make_qdigest_stream(domain, size: int, seed: int) -> StreamingQDigest:
    return StreamingQDigest.for_domain(domain, size)


#: Registry method names with a native streaming implementation.
NATIVE_STREAMERS: Dict[str, Callable] = {
    "obliv": _make_obliv,
    "exact": _make_exact,
    "sketch": _make_sketch,
    "qdigest-stream": _make_qdigest_stream,
}


def incremental_summary(
    name: str,
    domain,
    size: int,
    seed: int = 0,
    *,
    stale_fraction: float = 0.0,
    growth: float = 2.0,
) -> IncrementalSummary:
    """An incremental summary for any registered method name.

    Natively streaming methods get their dedicated structure; every
    other registered method streams through the buffered-rebuild
    adapter.  Unknown names raise the registry's standard ``KeyError``.
    """
    if name in NATIVE_STREAMERS:
        registry.get(name)  # uniform unknown-name behavior
        return NATIVE_STREAMERS[name](domain, size, seed)
    return BufferedRebuildSummary(
        registry.get(name),
        domain,
        size,
        seed=seed,
        stale_fraction=stale_fraction,
        growth=growth,
    )
