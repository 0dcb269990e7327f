"""Declarative name -> summary-builder registry.

Every summarization method the repo knows is registered here under a
stable string name with the uniform signature
``builder(dataset, size, rng) -> summary``.  The experiment harness,
the examples, the benchmarks and the sharded build engine all resolve
methods through this registry instead of hand-wiring imports, and a
fleet build ships only the *name* across process boundaries
(builders themselves are often lambdas/closures and need not pickle).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.types import Dataset

#: A summary factory: (dataset, size, rng) -> summary object.
Builder = Callable[[Dataset, int, np.random.Generator], object]

_REGISTRY: Dict[str, Builder] = {}
_MERGEABLE: Dict[str, bool] = {}
# Wire codecs: stable tag <-> summary class, used by the distributed
# subsystem to frame summaries for transport (repro.distributed.codec).
_CODEC_CLASSES: Dict[str, type] = {}
_CODEC_TAGS: Dict[type, str] = {}

#: Read-only live view of the registry (what the harness exposes as
#: ``METHODS``).
REGISTRY = MappingProxyType(_REGISTRY)


def register(
    name: str,
    builder: Optional[Builder] = None,
    *,
    overwrite: bool = False,
    mergeable: bool = True,
):
    """Register a builder under ``name``; usable as a decorator.

    ``mergeable`` declares whether the built summaries implement the
    mergeable-summary protocol; the sharded build engine consults it
    to fail fast instead of after an expensive multi-shard build.

    >>> @register("my-method")
    ... def build(dataset, size, rng): ...
    """
    def _add(fn: Builder) -> Builder:
        if not overwrite and name in _REGISTRY:
            raise KeyError(f"method {name!r} is already registered")
        _REGISTRY[name] = fn
        _MERGEABLE[name] = bool(mergeable)
        return fn

    if builder is None:
        return _add
    return _add(builder)


def is_mergeable(name: str) -> bool:
    """Whether summaries built by ``name`` support ``merge``."""
    get(name)  # raise the standard KeyError for unknown names
    return _MERGEABLE.get(name, True)


def get(name: str) -> Builder:
    """Look up a builder by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown method {name!r}; have {available()}"
        ) from None


def available() -> List[str]:
    """Sorted names of all registered methods."""
    return sorted(_REGISTRY)


# ----------------------------------------------------------------------
# Wire-codec registration (summary serialization for repro.distributed)
# ----------------------------------------------------------------------

def register_codec(tag: str, cls: type, *, overwrite: bool = False) -> None:
    """Register a summary class under a stable wire tag.

    The class must implement the codec hooks ``to_state()`` /
    ``from_state(state)`` (bit-exact round trip).  The tag is what goes
    on the wire, so it must stay stable across versions and processes.
    """
    if not overwrite and tag in _CODEC_CLASSES:
        raise KeyError(f"codec tag {tag!r} is already registered")
    if not hasattr(cls, "to_state") or not hasattr(cls, "from_state"):
        raise TypeError(
            f"{cls.__name__} lacks the to_state/from_state codec hooks"
        )
    _CODEC_CLASSES[tag] = cls
    _CODEC_TAGS[cls] = tag


def codec_class(tag: str) -> type:
    """The summary class registered under a wire tag."""
    try:
        return _CODEC_CLASSES[tag]
    except KeyError:
        raise KeyError(
            f"unknown codec tag {tag!r}; have {codecs_available()}"
        ) from None


def codec_tag(summary) -> str:
    """The wire tag of a summary instance (or class).

    Looks up the *exact* type -- a subclass with different state must
    register its own tag.
    """
    cls = summary if isinstance(summary, type) else type(summary)
    try:
        return _CODEC_TAGS[cls]
    except KeyError:
        raise KeyError(
            f"no codec registered for {cls.__name__}; "
            f"have {codecs_available()}"
        ) from None


def codecs_available() -> List[str]:
    """Sorted wire tags of all registered codecs."""
    return sorted(_CODEC_CLASSES)


def build(
    name: str, dataset: Dataset, size: int, rng: np.random.Generator
):
    """Build one summary by method name."""
    return get(name)(dataset, size, rng)


def _register_defaults() -> None:
    """Register the repo's built-in methods (import-cycle safe)."""
    from repro.aware.product_sampler import product_aware_summary
    from repro.core.poisson import poisson_summary
    from repro.core.varopt import stream_varopt_summary, varopt_summary
    from repro.summaries.exact import ExactSummary
    from repro.summaries.qdigest import QDigestSummary
    from repro.summaries.qdigest_stream import StreamingQDigest
    from repro.summaries.sketch import DEFAULT_HASH_SEED, DyadicSketchSummary
    from repro.summaries.wavelet import WaveletSummary
    from repro.twopass.two_pass import two_pass_summary

    def _qdigest_stream(data, s, rng):
        """Classic streaming 1-D q-digest, fed in storage order."""
        digest = StreamingQDigest.for_domain(data.domain, s)
        digest.update(data.coords, data.weights)
        return digest

    # The paper's `aware`: two passes, guide sample 5s, kd partition.
    register("aware", lambda data, s, rng: two_pass_summary(data, s, rng))
    # Main-memory structure-aware variant (Section 4).
    register("aware-mm",
             lambda data, s, rng: product_aware_summary(data, s, rng))
    # The paper's `obliv`: one-pass stream VarOpt.
    register("obliv", lambda data, s, rng: stream_varopt_summary(data, s, rng))
    # Offline (random-order pair aggregation) VarOpt.
    register("varopt", lambda data, s, rng: varopt_summary(data, s, rng))
    register("poisson", lambda data, s, rng: poisson_summary(data, s, rng))
    register("wavelet", lambda data, s, rng: WaveletSummary(data, s))
    register("qdigest", lambda data, s, rng: QDigestSummary(data, s))
    # The classic streaming q-digest [22] (1-D), deterministic and
    # natively incremental; the stream engine's q-digest of choice.
    register("qdigest-stream", _qdigest_stream)
    # Sketch hash functions come from the shared default seed, so
    # independently built shard/pane sketches merge by table addition.
    register("sketch",
             lambda data, s, rng: DyadicSketchSummary(
                 data, s, hash_seed=DEFAULT_HASH_SEED))
    # Ground truth, for harness uniformity ("size" is the full data).
    register("exact", lambda data, s, rng: ExactSummary(data))

    # Wire codecs: one stable tag per summary class the repo ships.
    # Every sampling method (aware, obliv, varopt, poisson, ...) builds
    # a SampleSummary, so one "sample" codec covers them all.
    from repro.core.estimator import SampleSummary
    from repro.core.varopt import StreamVarOpt

    register_codec("sample", SampleSummary)
    register_codec("varopt-reservoir", StreamVarOpt)
    register_codec("exact", ExactSummary)
    register_codec("qdigest", QDigestSummary)
    register_codec("qdigest-stream", StreamingQDigest)
    register_codec("wavelet", WaveletSummary)
    register_codec("sketch", DyadicSketchSummary)
    # Telemetry histograms ship worker -> coordinator over the same
    # wire as summaries (merge = bucket-count addition).
    from repro.obs.metrics import Histogram as _ObsHistogram

    register_codec("obs-hist", _ObsHistogram)


_register_defaults()
