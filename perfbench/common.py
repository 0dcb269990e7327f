"""Pieces the three workloads share.

* The load generator: seeded arrival schedules at fixed absolute rates
  and an open-loop replay (one process, at most two generator threads).
* The benchmark's own ground truth: exact range sums computed from the
  generated inputs, never from a summary of the system under test.
* The 2-D multi-range query shape: three disjoint prefix rectangles.
* The speed probe that scales timings for the host's load.
* Run context, peak memory and write accounting (read from ``/proc``).
"""

from __future__ import annotations

import gc
import math
import os
import platform
import resource
import time

import numpy as np

N_TENANTS = 16
TENANT_ZIPF = 1.2
TENANTS = tuple(f"t{i}" for i in range(N_TENANTS))
#: Durability of the log checkpoint store, recorded with every run.
FLUSH_POLICY = "append=flush; sync/prune/truncate=fsync"


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------

def poisson_offsets(rng, rate, seconds):
    """Poisson arrival offsets (s) at ``rate`` over ``[0, seconds]``.

    The count is fixed at ``rate * seconds``: a Poisson process
    conditioned on its count is that many sorted uniform arrivals, so
    every seed offers the same load and only the bursts move.
    """
    n = max(1, int(round(rate * seconds)))
    return np.sort(rng.uniform(0.0, seconds, n))


def settle_heap():
    """Put every object alive now out of the cyclic collector's reach.

    Called after a phase's inputs are generated and before it is timed:
    the benchmark's own inputs (hundreds of thousands of query objects)
    would otherwise make each full collection walk them all, pauses of
    15-30 ms that land on whichever requests are in flight.  Objects the
    program allocates afterwards are collected as usual.
    """
    gc.collect()
    gc.freeze()


_PROBE_DATA = np.arange(2048, dtype=np.float64)


def _probe_work():
    """About a millisecond of fixed interpreter and small-NumPy work."""
    data = _PROBE_DATA
    acc = 0.0
    for i in range(300):
        acc += float(data[i:i + 64].sum()) * 0.5 - i
    return acc


#: The probe's time on the reference machine that scaled figures are
#: quoted for: about its median on the 2-vCPU host the benchmark was
#: tuned on, so there scaled figures read close to wall-clock ones.
REF_PROBE_S = 0.7e-3


class SpeedProbe:
    """How fast the machine runs a fixed piece of work during a phase.

    A shared host's other tenants slow the same work by up to ~40%, in
    spells from a fraction of a second to minutes -- often a whole run,
    so no statistic over one run's own timings removes them.  The
    workloads therefore ``tick()`` this probe often during a phase, at
    moments when the program is idle or nearly so (each tick times
    ``REPS`` runs of fixed interpreter and NumPy work, never the
    program, and keeps their median), and quote the phase's timings
    scaled by :meth:`scale`: the reference probe time over the phase's
    mean probe time.  A program change moves a scaled figure as it moves
    the wall clock; the host's load moves the probe with it and cancels
    out.  The ticks must find the program idle: work it left running
    would slow the probe and be read as the host's load.
    """

    REPS = 3

    def __init__(self):
        self.samples = []

    def tick(self):
        clock = time.perf_counter
        taken = []
        for _ in range(self.REPS):
            start = clock()
            _probe_work()
            taken.append(clock() - start)
        self.samples.append(sorted(taken)[self.REPS // 2])

    def scale(self):
        """Multiply a duration by this (divide a rate) to scale it."""
        return REF_PROBE_S / float(np.mean(self.samples))


def zipf_tenants(rng, n):
    """``n`` tenant names, Zipf(1.2) over 16 tenants (``t0`` floods)."""
    from repro.datagen.distributions import zipf_choice

    picks = zipf_choice(N_TENANTS, n, TENANT_ZIPF, rng)
    return [TENANTS[i] for i in picks.tolist()]


def replay(submit, methods, queries, tenants, due, shed_errors):
    """Submit request ``i`` at monotonic time ``due[i]``, open loop.

    Never waits for an answer; behind schedule, it submits the backlog
    at once.  Returns the handles (``None`` where admission control
    shed the request) and the submit stamps (``stamp - due`` is the
    generator's lag).
    """
    clock = time.monotonic
    sleep = time.sleep
    handles = [None] * len(due)
    sent = [0.0] * len(due)
    for i, when in enumerate(due):
        ahead = when - clock()
        if ahead > 0:
            sleep(ahead)
        try:
            handles[i] = submit(methods[i], queries[i], tenants[i])
        except shed_errors:
            pass
        sent[i] = clock()
    return handles, np.asarray(sent)


def resolve(handles, due, timeout_s):
    """Latency (s) from scheduled arrival and the answer, per request.

    A shed, failed or timed-out request reads ``inf`` latency and a
    ``nan`` answer: it misses every SLO.  Returns
    ``(latency, answers, failed)``.
    """
    n = len(handles)
    latency = np.full(n, np.inf)
    answers = np.full(n, np.nan)
    failed = 0
    deadline = time.monotonic() + timeout_s
    for i, handle in enumerate(handles):
        if handle is None:
            continue
        try:
            answers[i] = handle.result(max(0.0, deadline - time.monotonic()))
        except Exception:  # a kernel error or a timeout: counted, a miss
            failed += 1
            continue
        latency[i] = handle.done_at - due[i]
    return latency, answers, failed


def window_median(values, offsets, window_s, q):
    """Median over windows of ``window_s`` (by ``offsets``) of ``q``-quantiles."""
    window = np.floor_divide(offsets, window_s)
    return float(np.median([
        quantile(values[window == w], q) for w in np.unique(window)
    ]))


def quantile(values, q):
    """Empirical ``q``-quantile: the value of rank ``ceil(q n)``.

    No interpolation, so an ``inf`` (a missed request) holding the rank
    comes back as ``inf`` instead of turning into ``nan``.
    """
    arr = np.sort(np.asarray(values, dtype=float))
    if arr.size == 0:
        return float("nan")
    return float(arr[max(1, math.ceil(q * arr.size)) - 1])


# ----------------------------------------------------------------------
# Ground truth and the 2-D query shape
# ----------------------------------------------------------------------

def prefix_boxes(rng, coords, n_queries, ranges=3, bits=(6, 18), key_bits=32):
    """``(n_queries, ranges, 4)`` pairwise-disjoint prefix rectangles.

    A row is ``(src_lo, src_hi, dst_lo, dst_hi)``: a source subnet times
    a destination subnet -- a node of the product of the two IP
    hierarchies -- around a randomly drawn flow, so every rectangle
    covers populated address space.
    """
    out = np.empty((n_queries, ranges, 4), dtype=np.int64)
    todo = np.arange(n_queries)
    while todo.size:
        m = todo.size * ranges
        anchor = coords[rng.integers(0, coords.shape[0], m)]
        shift = key_bits - rng.integers(bits[0], bits[1] + 1, size=(m, 2))
        lo = (anchor >> shift) << shift
        hi = lo + (np.int64(1) << shift) - 1
        cand = np.stack(
            (lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1]), axis=1
        ).reshape(todo.size, ranges, 4)
        ok = np.ones(todo.size, dtype=bool)
        for i in range(ranges):
            for j in range(i + 1, ranges):
                a, b = cand[:, i], cand[:, j]
                ok &= ~(
                    (a[:, 0] <= b[:, 1]) & (b[:, 0] <= a[:, 1])
                    & (a[:, 2] <= b[:, 3]) & (b[:, 2] <= a[:, 3])
                )
        out[todo[ok]] = cand[ok]
        todo = todo[~ok]
    return out


def multirange_queries(boxes):
    """One :class:`MultiRangeQuery` per row of :func:`prefix_boxes`."""
    from repro.structures.ranges import Box, MultiRangeQuery

    return [
        MultiRangeQuery([Box((b[0], b[2]), (b[1], b[3])) for b in row])
        for row in boxes.tolist()
    ]


def exact_union_sums(coords, weights, boxes):
    """Exact weight inside each query's (disjoint) rectangles."""
    flat = boxes.reshape(-1, 4)
    order = np.argsort(coords[:, 0], kind="stable")
    src = coords[order, 0]
    dst = coords[order, 1]
    w = weights[order]
    start = np.searchsorted(src, flat[:, 0], side="left")
    stop = np.searchsorted(src, flat[:, 1], side="right")
    sums = np.empty(flat.shape[0])
    for k, (a, b) in enumerate(zip(start.tolist(), stop.tolist())):
        seg = dst[a:b]
        sums[k] = w[a:b][(seg >= flat[k, 2]) & (seg <= flat[k, 3])].sum()
    return sums.reshape(boxes.shape[:2]).sum(axis=1)


def in_window(stamps, now, pane, width):
    """Which batches a sliding pane window holds at stream clock ``now``.

    Mirrors the stream engine: a batch lives in pane ``ts // pane`` and
    a pane stays while its end is past ``now - width``, so the window is
    pane-granular and its oldest pane counts whole.
    """
    index = np.floor_divide(stamps, pane)
    return (index * pane + pane > now - width) & (stamps <= now)


def mean_error(estimates, exact, total):
    """The paper's error: mean ``|estimate - exact|`` over total weight."""
    return float(np.mean(np.abs(np.asarray(estimates) - exact)) / total)


# ----------------------------------------------------------------------
# Run context and process accounting
# ----------------------------------------------------------------------

def git_commit(root):
    """The checked-out commit, read from ``.git`` (``unknown`` without)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref)) as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def filesystem_of(path):
    """Type of the filesystem ``path`` lives on (from ``/proc/mounts``)."""
    real = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                inside = real == mount or real.startswith(
                    mount.rstrip("/") + "/"
                )
                if inside and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def run_context(workload, seed, seconds, trace):
    """What every raw record states about the machine and the run."""
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(os.getcwd()),
        "platform": platform.platform(),
    }


def _status_kb(pid, field):
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(child_pids=()):
    """Peak resident MiB of this process plus each live child given."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB
    children = sum(_status_kb(pid, "VmHWM") for pid in child_pids)
    return (own + children) / 1024.0


def bytes_written():
    """Bytes this process has handed to write calls so far."""
    try:
        with open("/proc/self/io") as fh:
            for line in fh:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0
