"""Distributed build/serve subsystem.

Four layers turn the in-process engine into a multi-worker system:

* :mod:`repro.distributed.codec` -- versioned, compact wire codecs:
  bit-exact summary frames (via the ``to_state``/``from_state`` hooks
  registered next to each summary class) plus the control-message
  format.
* :mod:`repro.distributed.worker` -- the stateful worker runtime:
  builds shard summaries (batch) or ingests micro-batch slices
  (streaming) and ships serialized summaries upstream.
* :mod:`repro.distributed.coordinator` -- schedules workers over
  pluggable transports (in-process, multiprocessing pipes, shared
  memory), retries/reassigns failed tasks, and folds what comes back
  with the engine's one fold: shard builds through
  ``build_sharded(..., coordinator=...)`` for batch,
  :class:`DistributedIngest` for streams.
* :mod:`repro.distributed.frontend` -- :class:`QueryFrontend`: serves
  range-query batteries against the latest folded state with an LRU
  snapshot cache and per-snapshot sort-order reuse.

Two serving-tier layers ride on those (see ``SERVING.md``):

* :mod:`repro.distributed.dispatch` -- :class:`AsyncDispatcher`: the
  coordinator's non-blocking dispatch thread with bounded per-worker
  queues, explicit :class:`Backpressure`, and per-request wire
  accounting (every synchronous coordinator call is a thin wrapper
  over it).
* :class:`ServingFrontend` -- the long-lived multi-tenant query
  service: concurrent ``submit()``, cross-supplier fan-out,
  deadline + size flushing, admission control with shed-on-overload.
"""

from repro.distributed.codec import (
    CodecError,
    TruncatedPayloadError,
    VersionMismatchError,
    WIRE_VERSION,
    decode_message,
    encode_message,
    from_bytes,
    to_bytes,
)
from repro.distributed.coordinator import (
    Coordinator,
    DistributedError,
    DistributedIngest,
)
from repro.distributed.dispatch import (
    AsyncDispatcher,
    Backpressure,
    ReplyFuture,
)
from repro.distributed.frontend import (
    OverloadError,
    QueryFrontend,
    ServedAnswer,
    ServiceClosedError,
    ServingFrontend,
)
from repro.distributed.transport import (
    InProcessTransport,
    MultiprocessingTransport,
    SharedMemoryTransport,
    TransportError,
    make_transport,
)
from repro.distributed.worker import WorkerRuntime

__all__ = [
    "AsyncDispatcher",
    "Backpressure",
    "CodecError",
    "Coordinator",
    "DistributedError",
    "DistributedIngest",
    "InProcessTransport",
    "MultiprocessingTransport",
    "OverloadError",
    "QueryFrontend",
    "ReplyFuture",
    "ServedAnswer",
    "ServiceClosedError",
    "ServingFrontend",
    "SharedMemoryTransport",
    "TransportError",
    "TruncatedPayloadError",
    "VersionMismatchError",
    "WIRE_VERSION",
    "WorkerRuntime",
    "decode_message",
    "encode_message",
    "from_bytes",
    "make_transport",
    "to_bytes",
]
