"""The three benchmark workloads, driven through the public ``repro`` API.

Each workload is a closed loop: an operation is issued only after the
previous one completed.  A run is made of slices (see ``run.py``); each
slice builds its own world, so every slice also yields set-up samples.
Inputs (operation mix, pairs, sizes, payload bytes, task due times) are
generated from ``(seed, slice number)`` before any timing; the runtime
only ever sees the generated buffers and calls.

Every ``run_*`` function returns a :class:`Result`: latency samples per
series (seconds), additive totals, set-up samples (seconds) and operation
accounting.  A wrong result, an ``MpiError`` and a timeout each count as
a failed operation; a wrong result also counts in ``wrong``.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass, field

import numpy as np

import repro
from repro.usercoll import user_allreduce

from layers import Tracer

_clock = time.perf_counter

#: an operation that takes longer than this counts as failed
OP_TIMEOUT_S = 5.0

#: every small message is a seeded slice of a pool this large
_POOL_BYTES = 1 << 16

#: operations scheduled per slice; a slice that runs more repeats them
_SCHED_N = 4096


@dataclass
class Result:
    series: dict[str, list[float]] = field(default_factory=dict)
    #: additive totals (e.g. completed tasks and the seconds they took)
    totals: dict[str, float] = field(default_factory=dict)
    setup_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: list[str] = field(default_factory=list)
    #: per-process tracer summaries and Chrome events (traced slices)
    traces: list[dict] = field(default_factory=list)
    chrome: list[dict] = field(default_factory=list)
    #: the world hung or died; the workload's remaining slices are skipped
    aborted: bool = False
    #: timed operations and their summed wall time
    ops: int = 0
    op_wall_s: float = 0.0

    def add(self, series: str, value: float) -> None:
        self.series.setdefault(series, []).append(value)

    def total(self, key: str, value: float) -> None:
        self.totals[key] = self.totals.get(key, 0.0) + value

    def fail(self, note: str, *, wrong: bool = False) -> None:
        self.failed += 1
        self.wrong += wrong
        self.notes.append(note)

    def merge(self, other: "Result") -> None:
        for k, v in other.series.items():
            self.series.setdefault(k, []).extend(v)
        for k, v in other.totals.items():
            self.total(k, v)
        self.setup_s.extend(other.setup_s)
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.aborted |= other.aborted
        self.notes.extend(other.notes)
        self.traces.extend(other.traces)
        self.chrome.extend(other.chrome)
        self.ops += other.ops
        self.op_wall_s += other.op_wall_s


def _rng(seed: int, workload: int, slice_no: int) -> np.random.Generator:
    return np.random.default_rng([seed, workload, slice_no])


def _log_uniform(rng, lo: float, hi: float, n: int) -> np.ndarray:
    return np.exp(rng.uniform(np.log(lo), np.log(hi), n))


def _start_trace(trace: bool, span_cap: int, pid: int = 0) -> Tracer | None:
    if not trace:
        return None
    tracer = Tracer(span_cap=span_cap, pid=pid)
    tracer.install()
    return tracer


def _finish_trace(res: Result, tracer: Tracer | None, t_origin_ns: int) -> None:
    if tracer is not None:
        res.traces.append(tracer.summary())
        res.chrome.extend(tracer.chrome_events(t_origin_ns))


def _ar_vector(base: int, count: int, rank: int) -> np.ndarray:
    """Rank ``rank``'s allreduce input: small integers, so sums are exact."""
    return ((base + np.arange(count) * 7 + rank * 13) % 1024).astype(np.float64)


# ----------------------------------------------------------------------
# inproc_small: one thread drives a 4-rank in-process World.
# ----------------------------------------------------------------------

INPROC_RANKS = 4
INPROC_RANKS_PER_NODE = 2
_PINGPONG, _ALLREDUCE, _USER_ALLREDUCE = 0, 1, 2
#: leading operations of each slice that are checked but not timed (they
#: fill the schedule-plan cache and the buffer pool)
_INPROC_WARM = 32
#: set-up-only world builds per slice when set-up is sampled
_INPROC_SETUPS = 32


def inproc_inputs(seed: int, slice_no: int) -> dict:
    rng = _rng(seed, 1, slice_no)
    n = _SCHED_N
    a = rng.integers(0, INPROC_RANKS, size=n)
    return {
        "pool": rng.integers(0, 256, size=_POOL_BYTES + 4096, dtype=np.uint8),
        "kind": rng.choice(3, size=n, p=[0.5, 0.25, 0.25]).tolist(),
        "a": a.tolist(),
        "b": ((a + rng.integers(1, INPROC_RANKS, size=n)) % INPROC_RANKS).tolist(),
        "nbytes": np.rint(_log_uniform(rng, 8, 4096, n)).astype(int).tolist(),
        "send_first": (rng.random(n) < 0.5).tolist(),
        "wildcard": (rng.random(n) < 0.5).tolist(),
        "off_fwd": rng.integers(0, _POOL_BYTES, size=n).tolist(),
        "off_back": rng.integers(0, _POOL_BYTES, size=n).tolist(),
        "count": rng.integers(1, 513, size=n).tolist(),
        "base": rng.integers(0, 1 << 20, size=n).tolist(),
    }


def _build_inproc_world():
    cfg = repro.RuntimeConfig(ranks_per_node=INPROC_RANKS_PER_NODE)
    t0 = _clock()
    world = repro.World(INPROC_RANKS, config=cfg)
    return world, _clock() - t0


def _drive(procs, reqs, deadline: float) -> bool:
    """Progress every rank until all ``reqs`` complete (False on timeout)."""
    is_complete = repro.request_is_complete
    spins = 0
    while True:
        for r in reqs:
            if not is_complete(r):
                break
        else:
            return True
        for p in procs:
            p.stream_progress()
        spins += 1
        if not spins & 255 and _clock() > deadline:
            return False


def _leg(comms, procs, src, dst, payload, rbuf, tag, send_first, wildcard, deadline):
    """One message src -> dst; returns the receive request, None on timeout."""
    n = payload.nbytes
    rsrc = repro.ANY_SOURCE if wildcard else src
    rtag = repro.ANY_TAG if wildcard else tag
    if send_first:
        s = comms[src].isend(payload, n, repro.BYTE, dst, tag)
        if not _drive(procs, [s], deadline):
            return None
        r = comms[dst].irecv(rbuf, n, repro.BYTE, rsrc, rtag)
        ok = _drive(procs, [r], deadline)
    else:
        r = comms[dst].irecv(rbuf, n, repro.BYTE, rsrc, rtag)
        s = comms[src].isend(payload, n, repro.BYTE, dst, tag)
        ok = _drive(procs, [s, r], deadline)
    return r if ok else None


def _leg_ok(req, src, tag, rbuf, payload) -> bool:
    st = req.status
    n = payload.nbytes
    return (
        not st.error
        and st.source == src
        and st.tag == tag
        and st.count_bytes == n
        and np.array_equal(rbuf[:n], payload)
    )


def run_inproc(
    seed: int,
    slice_no: int,
    seconds: float,
    *,
    sample_setup: bool = False,
    trace: bool = False,
    span_cap: int = 0,
    t_origin_ns: int = 0,
) -> Result:
    res = Result()
    for _ in range(_INPROC_SETUPS if sample_setup else 0):
        world, dt = _build_inproc_world()
        res.setup_s.append(dt)
        world.finalize()
    inp = inproc_inputs(seed, slice_no)
    tracer = _start_trace(trace, span_cap)
    try:
        world, dt = _build_inproc_world()
        res.setup_s.append(dt)
        if _inproc_loop(inp, world.procs, seconds, res, tracer):
            world.finalize()
        else:
            res.aborted = True
    finally:
        if tracer is not None:
            tracer.uninstall()
    _finish_trace(res, tracer, t_origin_ns)
    return res


def _inproc_loop(inp, procs, seconds, res: Result, tracer: Tracer | None) -> bool:
    """Run ops until ``seconds`` elapse; False if the world is unusable."""
    comms = [p.comm_world for p in procs]
    pool = inp["pool"]
    rbufs = [np.zeros(4096, dtype=np.uint8) for _ in procs]
    caches = [p.plan_cache for p in procs]
    hits0 = sum(c.stat_hits for c in caches)
    misses0 = sum(c.stat_misses for c in caches)
    n_sched = len(inp["kind"])
    end = _clock() + seconds
    i = 0
    while _clock() < end:
        k = i % n_sched
        kind = inp["kind"][k]
        res.attempted += 1
        deadline = _clock() + OP_TIMEOUT_S
        try:
            if kind == _PINGPONG:
                a, b, n = inp["a"][k], inp["b"][k], inp["nbytes"][k]
                fwd = pool[inp["off_fwd"][k] : inp["off_fwd"][k] + n]
                back = pool[inp["off_back"][k] : inp["off_back"][k] + n]
                tag = 100 + k % 7
                sf, wc = inp["send_first"][k], inp["wildcard"][k]
                if tracer is not None:
                    tracer.op_begin(i)
                t0 = _clock()
                r1 = _leg(comms, procs, a, b, fwd, rbufs[b], tag, sf, wc, deadline)
                r2 = None
                if r1 is not None:
                    r2 = _leg(comms, procs, b, a, back, rbufs[a], tag, sf, wc, deadline)
                dt = _clock() - t0
                if tracer is not None:
                    tracer.op_end()
                if r2 is None:
                    res.fail(f"inproc op {i}: ping-pong {a}<->{b} timed out")
                    return False
                if not (_leg_ok(r1, a, tag, rbufs[b], fwd) and _leg_ok(r2, b, tag, rbufs[a], back)):
                    res.fail(f"inproc op {i}: ping-pong payload mismatch", wrong=True)
                elif i >= _INPROC_WARM:
                    same_node = a // INPROC_RANKS_PER_NODE == b // INPROC_RANKS_PER_NODE
                    res.add("intra_rtt" if same_node else "inter_rtt", dt)
                    res.add("rtt", dt)
            else:
                count, base = inp["count"][k], inp["base"][k]
                bufs = [_ar_vector(base, count, r) for r in range(len(procs))]
                expected = sum(bufs)
                outs = bufs if kind == _USER_ALLREDUCE else [np.zeros(count) for _ in procs]
                if tracer is not None:
                    tracer.op_begin(i)
                t0 = _clock()
                if kind == _ALLREDUCE:
                    reqs = [
                        c.iallreduce(bufs[r], outs[r], count, repro.DOUBLE, repro.SUM)
                        for r, c in enumerate(comms)
                    ]
                else:
                    reqs = [
                        user_allreduce(c, bufs[r], count, repro.DOUBLE, repro.SUM)
                        for r, c in enumerate(comms)
                    ]
                ok = _drive(procs, reqs, deadline)
                dt = _clock() - t0
                if tracer is not None:
                    tracer.op_end()
                if not ok:
                    res.fail(f"inproc op {i}: allreduce of {count} timed out")
                    return False
                if any(r.status.error for r in reqs) or not all(
                    np.array_equal(o, expected) for o in outs
                ):
                    res.fail(f"inproc op {i}: allreduce result mismatch", wrong=True)
                elif i >= _INPROC_WARM:
                    res.add("allreduce" if kind == _ALLREDUCE else "user_allreduce", dt)
        except repro.MpiError as exc:
            if tracer is not None and tracer.op >= 0:
                tracer.op_end()
            res.fail(f"inproc op {i}: {type(exc).__name__}: {exc}")
            return False
        if i >= _INPROC_WARM:
            res.ops += 1
            res.op_wall_s += dt
        i += 1
    if tracer is not None:
        hits = sum(c.stat_hits for c in caches) - hits0
        misses = sum(c.stat_misses for c in caches) - misses0
        tracer.count("plan_hits", hits)
        tracer.count("plan_lookups", hits + misses)
        tracer.count("ops", i)
    return True


# ----------------------------------------------------------------------
# procs_shm: 2 rank processes on the shm backend, blocking calls.
# ----------------------------------------------------------------------

PROCS_RANKS = 2
_CTL_TAG = 7
_PP_TAG = 1
_BULK_SIZES = (256 * 1024, 1 << 20)
_AR_COUNT = (1 << 20) // 8
#: operations per control message (rank 0 announces each block)
_BLOCK_SMALL = 64
_BLOCK_BULK = 4
_STOP, _SMALL, _BULK = 0, 1, 2
#: leading operations of each slice that are checked but not timed (they
#: fault in the shm segment and the buffers)
_WARM = {_SMALL: 64, _BULK: 8}
_PP_256K, _PP_1M, _AR_1M = 0, 1, 2
#: set-up-only spawns per slice when set-up is sampled
_PROCS_SETUPS = 24
#: blocking calls take no deadline, so a hung operation is caught when the
#: rank processes outlive their slice by this much
PROCS_GRACE_S = 3 * OP_TIMEOUT_S


def procs_inputs(seed: int, slice_no: int) -> dict:
    rng = _rng(seed, 2, slice_no)
    n = _SCHED_N
    return {
        "pool": rng.integers(0, 256, size=(1 << 20) + _POOL_BYTES, dtype=np.uint8),
        "small_off": rng.integers(0, _POOL_BYTES, size=n).tolist(),
        "bulk_kind": rng.integers(0, 3, size=n).tolist(),
        "bulk_off": rng.integers(0, _POOL_BYTES, size=n).tolist(),
        "ar_base": rng.integers(0, 1 << 20, size=n).tolist(),
    }


#: glibc allocator settings (``mallopt`` parameter -> value).  Setting the
#: mmap threshold turns off glibc's dynamic threshold.  Left dynamic,
#: whether a 1 MiB message buffer reused heap memory or faulted in fresh
#: pages depended on allocation history: 1 MiB round trips were bimodal
#: (about 1.3 ms or 3.5-5 ms, roughly half each) and the mix changed from
#: run to run.  Fixed above the largest buffer, with trimming held back,
#: freed buffers stay in the heap and are reused -- the state the dynamic
#: threshold settles in once a process has freed a buffer of each size.
ALLOCATOR = {"M_MMAP_THRESHOLD": 16 << 20, "M_TRIM_THRESHOLD": 256 << 20}
_MALLOPT_PARAM = {"M_TRIM_THRESHOLD": -1, "M_MMAP_THRESHOLD": -3}


def fix_allocator() -> bool:
    """Apply :data:`ALLOCATOR` in this process (False where not glibc)."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except AttributeError:
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return all(mallopt(_MALLOPT_PARAM[k], v) == 1 for k, v in ALLOCATOR.items())


def bind(cpus: set[int]) -> None:
    """Pin the calling process to ``cpus`` (no-op where unsupported)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, cpus)


def usable_cpus() -> list[int]:
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return [0]


def _entered(proc) -> dict:
    return {"entered": time.monotonic()}


def _procs_rank(params: dict, proc) -> dict:
    """Rank body.  Module level and bound with ``functools.partial`` so it
    pickles under ``spawn``; tracing is installed here, inside the rank
    process, so it works under either start method."""
    entered = time.monotonic()
    # Rank r runs on the r-th usable CPU, as MPI launchers bind ranks to
    # cores.  Unbound, the first slice of a process ran about twice as
    # slow as the rest.
    cpus = params["cpus"]
    bind({cpus[proc.rank % len(cpus)]})
    fix_allocator()
    tracer = _start_trace(params["trace"], params["span_cap"], pid=proc.rank)
    try:
        inp = procs_inputs(params["seed"], params["slice_no"])
        if proc.rank == 0:
            out = _procs_driver(proc, inp, params, tracer)
        else:
            out = _procs_echo(proc, inp, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    out["entered"] = entered
    if tracer is not None:
        tracer.count("ops", out.get("ops", 0))
        out["trace"] = tracer.summary()
        out["chrome"] = tracer.chrome_events(params["t_origin_ns"])
    return out


def _timed(tracer, op_id, fn, *args) -> float:
    if tracer is not None:
        tracer.op_begin(op_id)
    t0 = _clock()
    fn(*args)
    dt = _clock() - t0
    if tracer is not None:
        tracer.op_end()
    return dt


def _pingpong(comm, ping, rbuf):
    n = ping.nbytes
    comm.send(ping, n, repro.BYTE, 1, _PP_TAG)
    comm.recv(rbuf, n, repro.BYTE, 1, _PP_TAG)


def _echo(comm, rbuf, n):
    comm.recv(rbuf, n, repro.BYTE, 0, _PP_TAG)
    comm.send(rbuf, n, repro.BYTE, 0, _PP_TAG)


def _procs_driver(proc, inp, params, tracer) -> dict:
    """Rank 0: announce blocks of operations, time each one, check pongs."""
    comm = proc.comm_world
    pool = inp["pool"]
    n_sched = len(inp["small_off"])
    ctl = np.zeros(2, dtype=np.int64)
    rbuf = np.zeros(1 << 20, dtype=np.uint8)
    series = {"shm_rtt": [], "shm_256k": [], "shm_1m": [], "shm_ar": []}
    out = {"series": series, "attempted": 0, "timed": 0, "wrong": 0, "notes": [], "op_wall": 0.0}
    i = j = 0
    phases = ((_SMALL, _BLOCK_SMALL, params["small_s"]), (_BULK, _BLOCK_BULK, params["bulk_s"]))
    for phase, block, seconds in phases:
        end = _clock() + seconds
        warm_until = i + _WARM[phase]
        while _clock() < end or i < warm_until:
            ctl[:] = (phase, block)
            comm.send(ctl, 2, repro.INT64, 1, _CTL_TAG)
            for _ in range(block):
                out["attempted"] += 1
                if phase == _SMALL:
                    off = inp["small_off"][i % n_sched]
                    ping = pool[off : off + 8]
                    dt = _timed(tracer, i, _pingpong, comm, ping, rbuf)
                    good, key = np.array_equal(rbuf[:8], ping), "shm_rtt"
                else:
                    k = j % n_sched
                    j += 1
                    kind = inp["bulk_kind"][k]
                    if kind == _AR_1M:
                        base = inp["ar_base"][k]
                        sbuf, rsum = _ar_vector(base, _AR_COUNT, 0), np.zeros(_AR_COUNT)
                        comm.barrier()
                        dt = _timed(tracer, i, comm.allreduce, sbuf, rsum, _AR_COUNT, repro.DOUBLE, repro.SUM)
                        good = np.array_equal(rsum, sbuf + _ar_vector(base, _AR_COUNT, 1))
                        key = "shm_ar"
                    else:
                        off = inp["bulk_off"][k]
                        ping = pool[off : off + _BULK_SIZES[kind]]
                        dt = _timed(tracer, i, _pingpong, comm, ping, rbuf)
                        good = np.array_equal(rbuf[: ping.nbytes], ping)
                        key = "shm_256k" if kind == _PP_256K else "shm_1m"
                if not good:
                    out["wrong"] += 1
                    out["notes"].append(f"procs op {i}: {key} result mismatch")
                elif i >= warm_until:
                    series[key].append(dt)
                    out["timed"] += 1
                    out["op_wall"] += dt
                i += 1
    ctl[:] = (_STOP, 0)
    comm.send(ctl, 2, repro.INT64, 1, _CTL_TAG)
    out["ops"] = i
    return out


def _procs_echo(proc, inp, tracer) -> dict:
    """Rank 1: serve the blocks rank 0 announces; check every receipt."""
    comm = proc.comm_world
    pool = inp["pool"]
    n_sched = len(inp["small_off"])
    ctl = np.zeros(2, dtype=np.int64)
    rbuf = np.zeros(1 << 20, dtype=np.uint8)
    out = {"wrong": 0, "notes": []}
    i = j = 0
    while True:
        comm.recv(ctl, 2, repro.INT64, 0, _CTL_TAG)
        phase, block = int(ctl[0]), int(ctl[1])
        if phase == _STOP:
            return out
        for _ in range(block):
            kind, n = None, 8
            off = inp["small_off"][i % n_sched]
            if phase == _BULK:
                k = j % n_sched
                j += 1
                kind, off = inp["bulk_kind"][k], inp["bulk_off"][k]
            if kind == _AR_1M:
                base = inp["ar_base"][k]
                sbuf, rsum = _ar_vector(base, _AR_COUNT, 1), np.zeros(_AR_COUNT)
                comm.barrier()
                _timed(tracer, i, comm.allreduce, sbuf, rsum, _AR_COUNT, repro.DOUBLE, repro.SUM)
                good = np.array_equal(rsum, sbuf + _ar_vector(base, _AR_COUNT, 0))
            else:
                if kind is not None:
                    n = _BULK_SIZES[kind]
                _timed(tracer, i, _echo, comm, rbuf, n)
                # Checked after the pong left, off rank 0's timed path.
                good = np.array_equal(rbuf[:n], pool[off : off + n])
            if not good:
                out["wrong"] += 1
                out["notes"].append(f"procs echo op {i}: receipt mismatch")
            i += 1


def _spawn(fn, start_method: str, timeout: float):
    """Run ``fn`` on the rank processes; set-up time is from the call until
    the last rank entered ``fn`` (CLOCK_MONOTONIC is system-wide)."""
    from repro.runtime import run_proc_world

    t0 = time.monotonic()
    outs = run_proc_world(
        PROCS_RANKS, fn, backend="shm", start_method=start_method, timeout=timeout
    )
    return outs, max(o["entered"] for o in outs) - t0


def run_procs(
    seed: int,
    slice_no: int,
    seconds: float,
    *,
    start_method: str,
    cpus: list[int],
    sample_setup: bool = False,
    trace: bool = False,
    span_cap: int = 0,
    t_origin_ns: int = 0,
) -> Result:
    res = Result()
    params = {
        "seed": seed,
        "slice_no": slice_no,
        # bulk operations are 10x slower, so they get more of the slice
        "small_s": seconds / 3,
        "bulk_s": seconds * 2 / 3,
        "trace": trace,
        "span_cap": span_cap,
        "t_origin_ns": t_origin_ns,
        "cpus": cpus,
    }
    # The ranks are spawned from one CPU, so set-up (fork, rendezvous) runs
    # there.  Unpinned, medians of 30 set-ups drifted from 17 ms to 9 ms
    # within a minute as the host's spare capacity changed; pinned,
    # interleaved with them, they held within 16.5-17.9 ms.
    affinity = set(usable_cpus())
    bind({cpus[0]})
    try:
        for _ in range(_PROCS_SETUPS if sample_setup else 0):
            res.setup_s.append(_spawn(_entered, start_method, PROCS_GRACE_S)[1])
        outs, dt = _spawn(
            functools.partial(_procs_rank, params), start_method, seconds + PROCS_GRACE_S
        )
    except Exception as exc:  # noqa: BLE001 - a rank's own error comes back as is
        res.attempted += 1
        res.aborted = True
        res.fail(f"procs slice {slice_no}: {type(exc).__name__}: {exc}")
        return res
    finally:
        bind(affinity)
    res.setup_s.append(dt)
    drv = outs[0]
    for key, xs in drv["series"].items():
        res.series[key] = xs
    res.attempted += drv["attempted"]
    for o in outs:
        res.failed += o["wrong"]
        res.wrong += o["wrong"]
        res.notes.extend(o["notes"])
    res.ops += drv["timed"]
    res.op_wall_s += drv["op_wall"]
    if trace:
        for o in outs:
            res.traces.append(o["trace"])
            res.chrome.extend(o["chrome"])
    return res


# ----------------------------------------------------------------------
# async_hooks: the paper's Listing 1.2 dummy tasks on one rank.
# ----------------------------------------------------------------------

ASYNC_LAT_PENDING = 16
ASYNC_TPUT_PENDING = 1024
#: set-up-only ``repro.init()`` calls per slice when set-up is sampled
_ASYNC_SETUPS = 64


def async_inputs(seed: int, slice_no: int) -> list[float]:
    """Seeded task delays, 50 us to 1 ms, log-uniform."""
    return _log_uniform(_rng(seed, 3, slice_no), 50e-6, 1e-3, 2 * _SCHED_N).tolist()


class _Task:
    __slots__ = ("due", "done")

    def __init__(self, due: float) -> None:
        self.due = due
        self.done = False


class _DummyTasks:
    """Self re-arming dummy tasks: each completes at its due time and
    spawns a successor, so the pending count stays constant."""

    def __init__(self, delays: list[float], record: bool, tracer: Tracer | None) -> None:
        self.delays = delays
        #: keep each task's latency (off in the throughput phase, where the
        #: appends would be measured too)
        self.record = record
        self.k = 0
        self.rearm = True
        self.started = 0
        self.completed = 0
        self.wrong = 0
        self.latencies: list[float] = []
        self.poll = self._poll if tracer is None else tracer.wrap("async.poll", self._poll)

    def next_due(self, now: float) -> float:
        d = self.delays[self.k % len(self.delays)]
        self.k += 1
        return now + d

    def _poll(self, thing) -> int:
        task = thing.get_state()
        if task.done:  # the engine polled a task that already finished
            self.wrong += 1
            return repro.ASYNC_DONE
        now = _clock()
        if now < task.due:
            return repro.ASYNC_NOPROGRESS
        task.done = True
        self.completed += 1
        if self.record:
            self.latencies.append(now - task.due)
        if self.rearm:
            self.started += 1
            thing.spawn(self.poll, _Task(self.next_due(now)))
        return repro.ASYNC_DONE


def _async_phase(proc, delays, pending: int, seconds: float, res: Result, tracer) -> None:
    """Keep ``pending`` tasks in flight for ``seconds``, then drain them."""
    tasks = _DummyTasks(delays, pending == ASYNC_LAT_PENDING, tracer)
    progress = proc.stream_progress
    if tracer is not None:
        tracer.op_begin(pending)
    t0 = _clock()
    for _ in range(pending):
        tasks.started += 1
        proc.async_start(tasks.poll, _Task(tasks.next_due(t0)))
    end = t0 + seconds
    while _clock() < end:
        progress()
    elapsed = _clock() - t0
    done_in_window = tasks.completed
    if tracer is not None:
        tracer.op_end()
        tracer.count("ops", done_in_window)
    res.ops += done_in_window
    res.op_wall_s += elapsed
    tasks.rearm = False
    deadline = _clock() + OP_TIMEOUT_S
    while proc.pending_async_tasks and _clock() < deadline:
        progress()
    res.attempted += tasks.started
    lost = tasks.started - tasks.completed
    if lost or proc.pending_async_tasks:
        res.failed += lost
        res.notes.append(f"async {pending} pending: {lost} tasks never completed")
    if tasks.wrong:
        res.failed += tasks.wrong
        res.wrong += tasks.wrong
        res.notes.append(f"async {pending} pending: {tasks.wrong} polls after DONE")
    if pending == ASYNC_LAT_PENDING:
        res.series["async_lat"] = tasks.latencies[:done_in_window]
    else:
        res.total("async_done", done_in_window)
        res.total("async_s", elapsed)


def run_async(
    seed: int,
    slice_no: int,
    seconds: float,
    *,
    sample_setup: bool = False,
    trace: bool = False,
    span_cap: int = 0,
    t_origin_ns: int = 0,
) -> Result:
    res = Result()
    for _ in range(_ASYNC_SETUPS if sample_setup else 0):
        t0 = _clock()
        proc = repro.init()
        res.setup_s.append(_clock() - t0)
        proc.finalize()
    delays = async_inputs(seed, slice_no)
    tracer = _start_trace(trace, span_cap)
    try:
        t0 = _clock()
        proc = repro.init()
        res.setup_s.append(_clock() - t0)
        # completion rate varies more from run to run than latency, so the
        # throughput phase gets two thirds of the slice
        for pending, share in ((ASYNC_LAT_PENDING, 1 / 3), (ASYNC_TPUT_PENDING, 2 / 3)):
            _async_phase(proc, delays, pending, seconds * share, res, tracer)
        proc.finalize()
    finally:
        if tracer is not None:
            tracer.uninstall()
    _finish_trace(res, tracer, t_origin_ns)
    return res
