"""MPIX schedules: the proposal comparator, a compiled schedule IR, and
a per-process plan cache.

Two layers live here.

:class:`Schedule` is the MPIX_Schedule proposal (Schafer et al. [11];
paper section 5.3): a sequence of *rounds* of operations — MPI requests
(or thunks that start them) and local MPI-op reductions — where each
round must complete before the next begins.  ``commit`` returns a
request that completes when the final round (or the marked completion
point) does.  Committed schedules on the same stream are *fused*: one
async hook replays the whole per-stream chain, so a burst of
back-to-back schedules costs one hook registration and round ``k+1`` of
the next schedule starts in the same poll pass that retired round ``n``
of the previous one.

The *schedule IR* is what the proposal's persistent collectives become
once the planning is hoisted out of the per-call path: a
:class:`Plan` of flat step arrays (:class:`SendStep` / :class:`RecvStep`
/ :class:`ReduceStep` / :class:`CopyStep`) with pre-resolved peer
ranks, block offsets, and op bindings, produced once by per-algorithm
*planners* and replayed by a :class:`PlanExecutor` that binds the plan
to concrete buffers.  A :class:`PlanCache` (one per process context,
``proc.plan_cache``) memoizes plans keyed by
``(comm key, collective, algorithm, op, datatype, count bucket,
extras)`` with LRU bounds and invalidation on communicator free;
``repro.usercoll`` routes every user-level collective through it.

Plans are *count-independent*: step offsets and lengths are expressed
in units of the collective's block size (the whole message for
allreduce/bcast, one rank's contribution for allgather, zero bytes for
barrier), and the executor scales them by the concrete
``count * datatype.size`` at bind time.  The count *bucket* in the
cache key (``nbytes.bit_length()``) therefore only bounds key
cardinality and leaves room for size-dependent algorithm selection; it
never changes the bytes a plan moves.

The paper's criticism of the proposal — no progress mechanism of its
own — holds here too by construction: both layers *borrow* the MPIX
async hook for progression, exactly as the paper suggests any real
implementation effectively must.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import TYPE_CHECKING, Any, Callable

from repro.core.async_ext import ASYNC_DONE, ASYNC_NOPROGRESS, ASYNC_PENDING, AsyncThing
from repro.core.request import Request
from repro.core.stream import STREAM_NULL, MpixStream, StreamNullType
from repro.coll.algorithms.util import largest_pof2_below
from repro.datatype.ops import Op
from repro.datatype.types import Datatype, as_writable_view
from repro.errors import ProcessFailedError, RevokedError, error_code_for
from repro.util import sync as _sync

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.comm import Comm
    from repro.core.mpi import Proc
    from repro.config import RuntimeConfig

__all__ = [
    "Schedule",
    "SendStep",
    "RecvStep",
    "ReduceStep",
    "CopyStep",
    "PlanRound",
    "Plan",
    "PlanCache",
    "PlanExecutor",
    "plan_allreduce",
    "plan_bcast",
    "plan_allgather",
    "plan_barrier",
    "count_bucket",
]

#: A deferred operation: called at round start, returns the request.
RequestThunk = Callable[[], Request]


# ======================================================================
# Schedule IR: flat step arrays with pre-resolved bindings.
# ======================================================================

#: Buffer selectors a step can address.  ``BUF_USER`` is the caller's
#: buffer (message or block array); ``BUF_STAGE``/``BUF_SCRATCH`` are
#: block-sized regions of one staging slab leased from the process's
#: :class:`repro.mem.BufferPool` at bind time.
BUF_USER = 0
BUF_STAGE = 1
BUF_SCRATCH = 2

#: Step kind tags (dispatch on an int, not isinstance, in the replay
#: hot loop).
K_SEND = 0
K_RECV = 1
K_REDUCE = 2
K_COPY = 3

_EMPTY = memoryview(bytearray(0))


class SendStep:
    """Post an isend of ``nblocks`` blocks at ``block`` of ``buf`` to
    the pre-resolved comm-rank ``peer``."""

    __slots__ = ("kind", "peer", "buf", "block", "nblocks")

    def __init__(self, peer: int, buf: int = BUF_USER, block: int = 0, nblocks: int = 1) -> None:
        self.kind = K_SEND
        self.peer = peer
        self.buf = buf
        self.block = block
        self.nblocks = nblocks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Send(->{self.peer} buf{self.buf}[{self.block}:+{self.nblocks}])"


class RecvStep:
    """Post an irecv of ``nblocks`` blocks at ``block`` of ``buf`` from
    the pre-resolved comm-rank ``peer``."""

    __slots__ = ("kind", "peer", "buf", "block", "nblocks")

    def __init__(self, peer: int, buf: int = BUF_USER, block: int = 0, nblocks: int = 1) -> None:
        self.kind = K_RECV
        self.peer = peer
        self.buf = buf
        self.block = block
        self.nblocks = nblocks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Recv(<-{self.peer} buf{self.buf}[{self.block}:+{self.nblocks}])"


class ReduceStep:
    """``dst = src (op) dst`` over ``nblocks`` blocks — the op binding
    is resolved at plan time (the op is part of the cache key), so
    replay calls ``op.apply`` with no dispatch."""

    __slots__ = ("kind", "op", "src", "src_block", "dst", "dst_block", "nblocks")

    def __init__(
        self,
        op: Op,
        src: int,
        dst: int,
        *,
        src_block: int = 0,
        dst_block: int = 0,
        nblocks: int = 1,
    ) -> None:
        self.kind = K_REDUCE
        self.op = op
        self.src = src
        self.src_block = src_block
        self.dst = dst
        self.dst_block = dst_block
        self.nblocks = nblocks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Reduce({self.op.name} buf{self.src}->buf{self.dst})"


class CopyStep:
    """Byte copy of ``nblocks`` blocks between plan buffers."""

    __slots__ = ("kind", "src", "src_block", "dst", "dst_block", "nblocks")

    def __init__(
        self, src: int, dst: int, *, src_block: int = 0, dst_block: int = 0, nblocks: int = 1
    ) -> None:
        self.kind = K_COPY
        self.src = src
        self.src_block = src_block
        self.dst = dst
        self.dst_block = dst_block
        self.nblocks = nblocks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Copy(buf{self.src}[{self.src_block}]->buf{self.dst}[{self.dst_block}])"


class PlanRound:
    """One replay round: communication steps posted together at round
    entry, local steps run after every posted request completes."""

    __slots__ = ("comms", "locals")

    def __init__(self, comms=(), locals=()) -> None:
        self.comms: tuple = tuple(comms)
        self.locals: tuple = tuple(locals)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PlanRound(comms={list(self.comms)}, locals={list(self.locals)})"


class Plan:
    """A compiled, immutable, per-rank schedule for one collective.

    ``stage_blocks`` is how many block-sized staging regions the
    executor must lease (0 = no staging slab at all);
    ``result_blocks`` scales the completion ``count_bytes``.
    """

    __slots__ = ("algorithm", "rounds", "stage_blocks", "result_blocks")

    def __init__(
        self,
        algorithm: str,
        rounds: list[PlanRound],
        *,
        stage_blocks: int = 0,
        result_blocks: int = 1,
    ) -> None:
        self.algorithm = algorithm
        self.rounds: tuple[PlanRound, ...] = tuple(rounds)
        self.stage_blocks = stage_blocks
        self.result_blocks = result_blocks

    @property
    def num_steps(self) -> int:
        return sum(len(r.comms) + len(r.locals) for r in self.rounds)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Plan({self.algorithm}, rounds={len(self.rounds)}, "
            f"steps={self.num_steps}, stage={self.stage_blocks})"
        )


def count_bucket(nbytes: int) -> int:
    """Power-of-two size bucket for plan-cache keys.

    Plans are count-independent, so bucketing exists to bound the number
    of cache entries per (comm, op, datatype) and to give future
    size-dependent algorithm selection a key axis — not to distinguish
    the bytes moved.
    """
    return nbytes.bit_length()


# ----------------------------------------------------------------------
# Planners: build a Plan once per (comm shape, algorithm, op).
# ----------------------------------------------------------------------

def _reduce_steps(op: Op, rank: int, peer: int) -> tuple:
    """The rank-ordered reduction of the received block into the user
    buffer, pre-resolved: commutative ops (or a lower peer) reduce the
    staged block straight in; a non-commutative higher peer needs the
    my-data-first ordering via the scratch region."""
    if op.commutative or peer < rank:
        # buf = stage (op) buf
        return (ReduceStep(op, BUF_STAGE, BUF_USER),)
    # buf = buf (op) stage, computed as scratch=buf; stage=scratch(op)stage
    return (
        CopyStep(BUF_USER, BUF_SCRATCH),
        ReduceStep(op, BUF_SCRATCH, BUF_STAGE),
        CopyStep(BUF_STAGE, BUF_USER),
    )


def plan_allreduce(rank: int, size: int, op: Op) -> Plan:
    """Recursive-doubling allreduce with Rabenseifner-style remainder
    folding (the generalized Listing 1.8 state machine, compiled).

    Non-power-of-two sizes fold the first ``2 * rem`` ranks pairwise:
    even ranks send their contribution to the odd neighbor, sit out the
    doubling, and receive the final result back; odd ranks absorb the
    neighbor and participate with a renumbered rank.  Block unit: the
    whole message.
    """
    rounds: list[PlanRound] = []
    pof2 = largest_pof2_below(size)
    rem = size - pof2
    scratch = False

    if rank < 2 * rem:
        if rank % 2 == 0:
            # Fold out: contribute, then await the final result.
            rounds.append(PlanRound(comms=(SendStep(rank + 1),)))
            rounds.append(PlanRound(comms=(RecvStep(rank + 1),)))
            return Plan("rd-fold", rounds, stage_blocks=0)
        newrank = rank // 2
        steps = _reduce_steps(op, rank, rank - 1)
        scratch = scratch or len(steps) > 1
        rounds.append(
            PlanRound(comms=(RecvStep(rank - 1, BUF_STAGE),), locals=steps)
        )
    else:
        newrank = rank - rem

    mask = 1
    while mask < pof2:
        peer_new = newrank ^ mask
        peer = peer_new * 2 + 1 if peer_new < rem else peer_new + rem
        steps = _reduce_steps(op, rank, peer)
        scratch = scratch or len(steps) > 1
        rounds.append(
            PlanRound(
                comms=(RecvStep(peer, BUF_STAGE), SendStep(peer)),
                locals=steps,
            )
        )
        mask <<= 1

    if rank < 2 * rem and rank % 2 == 1:
        # Unfold: return the result to the even neighbor.
        rounds.append(PlanRound(comms=(SendStep(rank - 1),)))

    return Plan("rd-fold", rounds, stage_blocks=2 if scratch else 1)


def plan_bcast(rank: int, size: int, root: int) -> Plan:
    """Binomial-tree broadcast: receive from the tree parent, then fan
    out to the whole subtree in one round.  Block unit: the message."""
    relrank = (rank - root) % size
    mask = 1
    parent = None
    while mask < size:
        if relrank & mask:
            parent = (rank - mask + size) % size
            break
        mask <<= 1
    mask >>= 1
    children = []
    while mask > 0:
        if relrank + mask < size:
            children.append((rank + mask) % size)
        mask >>= 1
    rounds: list[PlanRound] = []
    if parent is not None:
        rounds.append(PlanRound(comms=(RecvStep(parent),)))
    if children:
        rounds.append(PlanRound(comms=tuple(SendStep(c) for c in children)))
    return Plan("binomial", rounds, stage_blocks=0)


def plan_allgather(rank: int, size: int) -> Plan:
    """Ring allgather: ``size - 1`` forwarding rounds over the user
    block array.  Block unit: one rank's contribution (``count``
    elements); block ``rank`` must hold the local data at bind time."""
    right = (rank + 1) % size
    left = (rank - 1 + size) % size
    rounds = []
    for step in range(size - 1):
        send_block = (rank - step + size) % size
        recv_block = (rank - step - 1 + size) % size
        rounds.append(
            PlanRound(
                comms=(
                    SendStep(right, BUF_USER, send_block),
                    RecvStep(left, BUF_USER, recv_block),
                )
            )
        )
    return Plan("ring", rounds, stage_blocks=0, result_blocks=size)


def plan_barrier(rank: int, size: int) -> Plan:
    """Dissemination barrier: zero-byte exchanges at doubling strides.
    Block unit: zero bytes (every step posts an empty message)."""
    rounds = []
    step = 1
    while step < size:
        to = (rank + step) % size
        frm = (rank - step + size) % size
        rounds.append(
            PlanRound(
                comms=(SendStep(to, nblocks=0), RecvStep(frm, nblocks=0))
            )
        )
        step <<= 1
    return Plan("dissem", rounds, stage_blocks=0, result_blocks=0)


# ----------------------------------------------------------------------
# Plan cache.
# ----------------------------------------------------------------------

#: LRU bound on cached plans per process context; the least recently
#: used plan is evicted past this.
PLAN_CACHE_MAX_PLANS = 128


class PlanCache:
    """LRU cache of compiled plans, one per process context.

    Keys are ``(comm_key, collective, algorithm, op, datatype,
    count_bucket, extras)`` tuples — ``comm_key`` is the communicator's
    ``(context_id, epoch)`` identity, so a freed communicator's entries
    can never serve a new communicator that reuses its context id.
    ``Comm.free`` calls :meth:`invalidate_comm`.

    With ``enabled=False`` every lookup builds (counted in
    ``stat_plan_builds``) and nothing is retained — the documented
    off-switch for differential benchmarking of cold planning vs cached
    replay.
    """

    __slots__ = (
        "enabled",
        "max_plans",
        "_plans",
        "_lock",
        "stat_hits",
        "stat_misses",
        "stat_builds",
        "stat_evictions",
        "stat_invalidations",
    )

    def __init__(
        self, *, enabled: bool = True, max_plans: int = PLAN_CACHE_MAX_PLANS
    ) -> None:
        self.enabled = enabled
        self.max_plans = max_plans
        self._plans: OrderedDict[tuple, Plan] = OrderedDict()
        self._lock = _sync.make_lock("plan.cache")
        self.stat_hits = 0
        self.stat_misses = 0
        self.stat_builds = 0
        self.stat_evictions = 0
        self.stat_invalidations = 0

    @classmethod
    def from_config(cls, config: "RuntimeConfig") -> "PlanCache":
        return cls(enabled=config.schedule_cache_enabled)

    def get_or_build(self, key: tuple, builder: Callable[[], Plan]) -> Plan:
        """Return the cached plan for ``key``, building it on a miss."""
        if not self.enabled:
            with self._lock:
                self.stat_misses += 1
                self.stat_builds += 1
            return builder()
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self.stat_hits += 1
                self._plans.move_to_end(key)
                return plan
            self.stat_misses += 1
            self.stat_builds += 1
            plan = self._plans[key] = builder()
            while len(self._plans) > self.max_plans:
                self._plans.popitem(last=False)
                self.stat_evictions += 1
            return plan

    def invalidate_comm(self, comm_key: tuple) -> int:
        """Drop every plan compiled for ``comm_key``; returns the count."""
        with self._lock:
            stale = [k for k in self._plans if k[0] == comm_key]
            for k in stale:
                del self._plans[k]
            self.stat_invalidations += len(stale)
            return len(stale)

    @property
    def entries(self) -> int:
        return len(self._plans)

    def stats(self) -> dict[str, Any]:
        return {
            "enabled": self.enabled,
            "entries": len(self._plans),
            "max_plans": self.max_plans,
            "stat_plan_hits": self.stat_hits,
            "stat_plan_misses": self.stat_misses,
            "stat_plan_builds": self.stat_builds,
            "stat_plan_evictions": self.stat_evictions,
            "stat_plan_invalidations": self.stat_invalidations,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PlanCache(entries={len(self._plans)}/{self.max_plans}, "
            f"hits={self.stat_hits}, misses={self.stat_misses})"
        )


# ----------------------------------------------------------------------
# Replay executor.
# ----------------------------------------------------------------------

class PlanExecutor:
    """Bind a cached :class:`Plan` to concrete buffers and replay it.

    Replay does no Python-level planning: round entry is one walk over
    a pre-built step tuple posting isend/irecv with pre-resolved peers
    and pre-scaled views, and each poll is one batched
    ``is_complete`` walk over the round's request array.  Staging comes
    from the process's leased :class:`~repro.mem.BufferPool` slab (one
    acquire per call, released at completion) instead of a fresh
    ``tmpbuf`` allocation per call.
    """

    __slots__ = (
        "plan",
        "comm",
        "count",
        "datatype",
        "tag",
        "done_req",
        "block_bytes",
        "views",
        "reqs",
        "round_index",
        "lease",
    )

    def __init__(
        self,
        plan: Plan,
        comm: "Comm",
        buf: Any,
        count: int,
        datatype: Datatype,
        tag: int,
        done_req: Request,
    ) -> None:
        self.plan = plan
        self.comm = comm
        self.count = count
        self.datatype = datatype
        self.tag = tag
        self.done_req = done_req
        bb = self.block_bytes = count * datatype.size
        user = as_writable_view(buf) if buf is not None and bb else _EMPTY
        stage = scratch = _EMPTY
        self.lease = None
        if plan.stage_blocks and bb:
            pool = comm.proc.p2p.pool
            if pool.enabled:
                self.lease = pool.acquire(plan.stage_blocks * bb)
                slab = self.lease.view
            else:
                slab = memoryview(bytearray(plan.stage_blocks * bb))
            stage = slab[:bb]
            if plan.stage_blocks > 1:
                scratch = slab[bb : 2 * bb]
        self.views = (user, stage, scratch)
        self.reqs: list[Request] = []
        self.round_index = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Post round 0 (called once, outside the hook)."""
        if not self.plan.rounds:
            self._finish()
            return
        try:
            self._start_round(self.plan.rounds[0])
        except (ProcessFailedError, RevokedError) as exc:
            self._fail(exc)

    def _start_round(self, rnd: PlanRound) -> None:
        comm = self.comm
        views = self.views
        bb = self.block_bytes
        cnt = self.count
        dt = self.datatype
        tag = self.tag
        reqs = self.reqs
        for s in rnd.comms:
            n = s.nblocks * cnt
            if n:
                view = views[s.buf][s.block * bb : (s.block + s.nblocks) * bb]
            else:
                view = _EMPTY
            if s.kind == K_SEND:
                reqs.append(comm.isend(view, n, dt, s.peer, tag))
            else:
                reqs.append(comm.irecv(view, n, dt, s.peer, tag))

    def _round_done(self) -> bool:
        """Batched completion check: one array walk (no side effects)."""
        for r in self.reqs:
            if not r.is_complete():
                return False
        return True

    def _round_failure(self) -> BaseException | None:
        """First captured failure in the completed round, if any."""
        for r in self.reqs:
            exc = r.exception
            if exc is not None:
                return exc
        return None

    def _fail(self, exc: BaseException) -> None:
        """Abort replay: reclaim the stage lease, fail the user request.

        Only called once every round request has completed (possibly
        with an error), so no in-flight operation still references the
        leased slab when it is released.
        """
        for r in self.reqs:
            r.free()
        self.reqs.clear()
        if self.lease is not None:
            self.lease.release()
            self.lease = None
        self.done_req.fail(exc, error_code_for(exc))

    def _run_locals(self, rnd: PlanRound) -> None:
        views = self.views
        bb = self.block_bytes
        cnt = self.count
        dt = self.datatype
        for s in rnd.locals:
            n = s.nblocks * cnt
            src = views[s.src][s.src_block * bb : (s.src_block + s.nblocks) * bb]
            dst = views[s.dst][s.dst_block * bb : (s.dst_block + s.nblocks) * bb]
            if s.kind == K_REDUCE:
                s.op.apply(src, dst, n, dt)
            else:
                dst[:] = src

    def _finish(self) -> None:
        if self.lease is not None:
            self.lease.release()
            self.lease = None
        self.done_req.complete(
            count_bytes=self.plan.result_blocks * self.block_bytes
        )

    def poll(self, thing: AsyncThing) -> int:
        """One hook invocation: replay as many rounds as have matured.

        A round request that completed with an error (peer fail-stop,
        communicator revoke) aborts the replay: the user request fails
        with the same exception instead of completing over partial
        data, and the stage lease is returned to the pool.
        """
        advanced = False
        rounds = self.plan.rounds
        while True:
            if self.done_req.is_complete():
                return ASYNC_DONE  # aborted in start() before hook ran
            if not self._round_done():
                return ASYNC_PENDING if advanced else ASYNC_NOPROGRESS
            exc = self._round_failure()
            if exc is not None:
                self._fail(exc)
                return ASYNC_DONE
            for r in self.reqs:
                r.free()
            self.reqs.clear()
            self._run_locals(rounds[self.round_index])
            self.round_index += 1
            advanced = True
            if self.round_index >= len(rounds):
                self._finish()
                return ASYNC_DONE
            try:
                self._start_round(rounds[self.round_index])
            except (ProcessFailedError, RevokedError) as err:
                # A revoke landed between rounds: posts on the revoked
                # communicator raise synchronously.  Requests posted
                # earlier in this round were swept (hence complete).
                self._fail(err)
                return ASYNC_DONE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PlanExecutor({self.plan.algorithm} round "
            f"{self.round_index}/{len(self.plan.rounds)})"
        )


# ======================================================================
# The MPIX_Schedule proposal comparator.
# ======================================================================

class _Round:
    __slots__ = ("items", "local_ops", "started", "requests")

    def __init__(self) -> None:
        self.items: list[Request | RequestThunk] = []
        self.local_ops: list[Callable[[], None]] = []
        self.started = False
        self.requests: list[Request] = []

    def reset(self) -> None:
        self.started = False
        self.requests = []


class _ScheduleChain:
    """Per-(proc, stream) fusion of committed schedules.

    All schedules committed on one stream share a single async hook:
    the chain replays the head schedule's rounds and, the moment it
    retires, starts the next schedule's first round *within the same
    poll pass*.  ``stat_fused`` counts commits that rode an already
    active hook instead of registering their own.
    """

    __slots__ = ("proc", "stream", "_lock", "_queue", "_running", "stat_fused", "stat_hooks")

    def __init__(self, proc: "Proc", stream: MpixStream) -> None:
        self.proc = proc
        self.stream = stream
        self._lock = _sync.make_lock(f"schedchain.vci{stream.vci}")
        self._queue: deque[Schedule] = deque()
        self._running = False
        #: commits fused onto an already running hook
        self.stat_fused = 0
        #: hooks registered (chain starts)
        self.stat_hooks = 0

    def submit(self, sched: "Schedule") -> None:
        start = False
        with self._lock:
            self._queue.append(sched)
            if self._running:
                self.stat_fused += 1
            else:
                self._running = True
                self.stat_hooks += 1
                start = True
        if start:
            self.proc.async_start(self._poll, self, self.stream)

    def _poll(self, thing: AsyncThing) -> int:
        advanced = False
        while True:
            with self._lock:
                sched = self._queue[0] if self._queue else None
                if sched is None:
                    self._running = False
                    return ASYNC_DONE
            status = sched._advance()
            if status == "done":
                with self._lock:
                    if self._queue and self._queue[0] is sched:
                        self._queue.popleft()
                advanced = True
                continue
            if status == "progress":
                advanced = True
            return ASYNC_PENDING if advanced else ASYNC_NOPROGRESS


def _chain_for(proc: "Proc", stream: MpixStream) -> _ScheduleChain:
    chains = proc._schedule_chains
    with proc._schedule_chain_lock:
        chain = chains.get(stream.stream_id)
        if chain is None:
            chain = chains[stream.stream_id] = _ScheduleChain(proc, stream)
    return chain


class Schedule:
    """One MPIX_Schedule.

    Build phase: ``add_operation`` / ``add_mpi_operation`` populate the
    current round; ``create_round`` closes it.  ``mark_reset_point`` /
    ``mark_completion_point`` record the persistent-collective markers:
    the commit request completes when the completion-point round does
    (later rounds are finalization), and :meth:`restart` replays from
    the reset point.  ``commit`` freezes the schedule and enqueues it on
    the stream's fused chain.

    ``free`` on a committed-but-incomplete schedule *cancels* it: the
    request completes with ``status.cancelled`` set, no further rounds
    start, and the chain drops it at the next poll — the hook never
    polls a freed schedule forever.
    """

    def __init__(self, proc: "Proc", *, auto_free: bool = True) -> None:
        self.proc = proc
        self.auto_free = auto_free
        self._rounds: list[_Round] = [_Round()]
        self.reset_point: int | None = None
        self.completion_point: int | None = None
        self._committed = False
        self._freed = False
        self._cancelled = False
        self.request: Request | None = None
        self._round_index = 0
        self._chain: _ScheduleChain | None = None

    # ------------------------------------------------------------------
    # Build phase.
    # ------------------------------------------------------------------
    def _check_building(self) -> None:
        if self._committed:
            raise RuntimeError("schedule already committed")
        if self._freed:
            raise RuntimeError("schedule already freed")

    def add_operation(self, op: Request | RequestThunk) -> None:
        """``MPIX_Schedule_add_operation``: add a request (or a thunk
        that starts one at round entry) to the current round."""
        self._check_building()
        self._rounds[-1].items.append(op)

    def add_mpi_operation(
        self,
        op: Op,
        invec,
        inoutvec,
        length: int,
        datatype: Datatype,
    ) -> None:
        """``MPIX_Schedule_add_mpi_operation``: a local reduction
        executed after the round's communications complete."""
        self._check_building()

        def run() -> None:
            op.apply(invec, inoutvec, length, datatype)

        self._rounds[-1].local_ops.append(run)

    def mark_reset_point(self) -> None:
        """``MPIX_Schedule_mark_reset_point``."""
        self._check_building()
        self.reset_point = len(self._rounds) - 1

    def mark_completion_point(self) -> None:
        """``MPIX_Schedule_mark_completion_point``."""
        self._check_building()
        self.completion_point = len(self._rounds) - 1

    def create_round(self) -> None:
        """``MPIX_Schedule_create_round``: close the current round."""
        self._check_building()
        self._rounds.append(_Round())

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def commit(
        self, stream: MpixStream | StreamNullType = STREAM_NULL
    ) -> Request:
        """``MPIX_Schedule_commit``: start executing; returns the
        schedule's request."""
        self._check_building()
        self._committed = True
        # Drop a trailing empty round (an artifact of create_round).
        if self._rounds and not self._rounds[-1].items and not self._rounds[-1].local_ops:
            self._rounds.pop()
        self.request = Request("schedule")
        if not self._rounds:
            self.request.complete()
            return self.request
        self._chain = _chain_for(self.proc, self.proc.resolve_stream(stream))
        self._chain.submit(self)
        return self.request

    def restart(self) -> Request:
        """Replay a completed schedule from its reset point (the
        persistent-collective reset semantics of the proposal).

        Rounds from the reset point on have their state cleared — thunk
        operations are re-invoked at round entry; direct ``Request``
        operations are reused as-is.  Requires ``auto_free=False`` and a
        complete previous run.
        """
        if self._freed:
            raise RuntimeError("schedule already freed")
        if not self._committed:
            raise RuntimeError("schedule not committed")
        if self.request is not None and not self.request.is_complete():
            raise RuntimeError("schedule still executing")
        start = self.reset_point if self.reset_point is not None else 0
        for rnd in self._rounds[start:]:
            rnd.reset()
        self._round_index = start
        self.request = Request("schedule")
        if start >= len(self._rounds):
            self.request.complete()
            return self.request
        assert self._chain is not None
        self._chain.submit(self)
        return self.request

    def _start_round(self, rnd: _Round) -> None:
        rnd.started = True
        for item in rnd.items:
            rnd.requests.append(item() if callable(item) else item)

    def _advance(self) -> str:
        """Chain-driven replay: 'done', 'progress', or 'idle'."""
        advanced = False
        while True:
            if self._cancelled:
                self._finish_cancel()
                return "done"
            rnd = self._rounds[self._round_index]
            if not rnd.started:
                try:
                    self._start_round(rnd)
                except (ProcessFailedError, RevokedError) as exc:
                    self._finish_failed(exc)
                    return "done"
            failed: BaseException | None = None
            for r in rnd.requests:
                if not r.is_complete():
                    return "progress" if advanced else "idle"
                if failed is None and r.exception is not None:
                    failed = r.exception
            if failed is not None:
                self._finish_failed(failed)
                return "done"
            for op in rnd.local_ops:
                op()
            advanced = True
            if self.completion_point == self._round_index:
                req = self.request
                if req is not None and not req.is_complete():
                    req.complete()
            self._round_index += 1
            if self._round_index >= len(self._rounds):
                req = self.request
                if req is not None and not req.is_complete():
                    req.complete()
                if self.auto_free:
                    self._freed = True
                return "done"
            # fall through: start the next round within this same poll

    def _finish_failed(self, exc: BaseException) -> None:
        """Abort after a round operation failed (fail-stop / revoke):
        the schedule's request fails and no later round starts."""
        for rnd in self._rounds:
            for r in rnd.requests:
                if r.is_complete():
                    r.free()
        req = self.request
        if req is not None and not req.is_complete():
            req.fail(exc, error_code_for(exc))
        if self.auto_free:
            self._freed = True

    def _finish_cancel(self) -> None:
        for rnd in self._rounds:
            for r in rnd.requests:
                r.free()
        req = self.request
        if req is not None and not req.is_complete():
            req.status.cancelled = True
            req.complete()

    def free(self) -> None:
        """``MPIX_Schedule_free``.

        Freeing a committed-but-incomplete schedule cancels it: the
        request completes immediately with ``status.cancelled`` set, no
        new rounds are started, and the fused chain detaches it on its
        next poll (already-posted round requests are freed, not
        awaited).  Freeing a building or completed schedule just
        releases it.
        """
        if self._freed:
            return
        self._freed = True
        req = self.request
        if not self._committed or req is None or req.is_complete():
            return
        self._cancelled = True
        req.status.cancelled = True
        req.complete()
