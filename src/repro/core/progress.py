"""The collated progress engine (Listing 1.1) and explicit stream progress.

One :class:`ProgressEngine` exists per process context.  A progress
pass for a stream polls, in the configured order,

1. the datatype engine (asynchronous pack/unpack),
2. collective schedules on the stream's VCI,
3. the shmem transport for the stream's address,
4. the netmod endpoint for the stream's address,

short-circuiting the remaining subsystems as soon as one makes progress
(netmod last because its empty poll is not free — section 2.6), and then
polls the stream's MPIX async hooks.  Hooks are polled on *every* pass,
never short-circuited away: they watch external events, and delaying
them is exactly the progress latency the paper is trying to eliminate.

Pending-work registry: each subsystem maintains a cheap active counter
(``DatatypeEngine.active_tasks``, the collective engine's per-VCI work
list, the shmem transport's per-address send/cell counters, the netmod
endpoint's pending count).  When ``RuntimeConfig.progress_registry_skip``
is on (the default), a pass first evaluates a per-VCI *busy check* — a
bound closure doing a few integer reads — and polls only the subsystems
that report work.  The common fully idle pass therefore does no
subsystem calls at all; ``stat_skipped_polls`` counts the polls avoided
(per engine and per stream, surfaced by :mod:`repro.core.introspect`).

Thread model: a pass runs under the stream's lock.  Re-entering
progress from inside a hook on the same thread raises
:class:`~repro.errors.ProgressReentryError` (section 3.4 prohibits it);
a *different* thread calling progress on the same stream blocks on the
lock — the contention measured in Fig. 9.
"""

from __future__ import annotations


from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.core.async_ext import (
    ASYNC_DONE,
    ASYNC_NOPROGRESS,
    ASYNC_PENDING,
    AsyncThing,
)
from repro.core.stream import MpixStream
from repro.errors import MpiError, ProgressReentryError
from repro.util import sync as _sync
from repro.util.lockfree import ShardedCounter

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.mpi import Proc

__all__ = ["ProgressState", "ProgressEngine"]

#: Batched-drain bound: one progress pass harvests at most this many
#: matured completions/arrivals per subsystem (``poll_batch``) and
#: advances at most this many collective schedules.  The bound keeps a
#: flooded VCI from monopolizing its pool worker while still amortizing
#: the per-pass overhead over a batch instead of one completion.
PROGRESS_BATCH_SIZE = 64


@dataclass
class ProgressState:
    """Caller-tunable progress pass (the ``MPID_Progress_state`` of
    Listing 1.1): lets a context skip subsystems it knows are idle."""

    skip: frozenset[str] = frozenset()
    #: filled in by the pass: which subsystems reported progress
    progressed: list[str] = field(default_factory=list)


class ProgressEngine:
    """Collated progress over all subsystems of one process context."""

    def __init__(self, proc: "Proc") -> None:
        self.proc = proc
        self.config = proc.config
        #: the installed time source: lock-wait accounting must follow
        #: it (a virtual-clock world has no wall-clock contention, and a
        #: perf_counter pair per pass is real overhead at 4096 ranks)
        self._clock = proc.clock
        #: per-pass subsystem pollers, bound once
        self._pollers: dict[str, Callable[[MpixStream], bool]] = {
            "datatype": self._poll_datatype,
            "collective": self._poll_collective,
            "shmem": self._poll_shmem,
            "netmod": self._poll_netmod,
        }
        self._order: tuple[str, ...] = tuple(self.config.progress_order)
        self._short_circuit = self.config.progress_short_circuit
        self._registry_on = self.config.progress_registry_skip
        #: busy-check closures emit names in the canonical order; when
        #: the configured order matches, their result is polled directly
        self._canonical_order = self._order == (
            "datatype",
            "collective",
            "shmem",
            "netmod",
        )
        #: per-VCI busy-check closures (pending-work registry)
        self._busy_checks: dict[int, Callable[[], list[str] | None]] = {}
        #: lock-wait accounting costs two clock reads per pass; the
        #: contention benches turn it on, the hot path leaves it off
        self._lock_stats = self.config.progress_lock_stats
        #: engine-wide counters are bumped by every pool worker (each
        #: under a *different* stream lock, so ``+=`` would race — A4 in
        #: :mod:`repro.util.lockfree`); sharded per thread, aggregated
        #: by ``introspect.snapshot``
        self.stat_passes = ShardedCounter()
        self.stat_subsystem_polls = ShardedCounter()
        self.stat_skipped_polls = ShardedCounter()

    # ------------------------------------------------------------------
    # Subsystem pollers.
    # ------------------------------------------------------------------
    def _poll_datatype(self, stream: MpixStream) -> bool:
        return self.proc.datatype_engine.progress()

    def _poll_collective(self, stream: MpixStream) -> bool:
        return self.proc.coll_engine.progress(stream.vci, PROGRESS_BATCH_SIZE)

    def _poll_shmem(self, stream: MpixStream) -> bool:
        return self.proc.p2p.progress_shmem(stream.vci, PROGRESS_BATCH_SIZE)

    def _poll_netmod(self, stream: MpixStream) -> bool:
        return self.proc.p2p.progress_netmod(stream.vci, PROGRESS_BATCH_SIZE)

    # ------------------------------------------------------------------
    # Pending-work registry.
    # ------------------------------------------------------------------
    def _make_busy_check(self, vci: int) -> Callable[[], list[str] | None]:
        """Bind a per-VCI busy check over the subsystems' work counters.

        The returned closure costs a few integer/truthiness reads and
        returns None when every subsystem is idle (the common case), or
        the list of subsystem names with pending work.
        """
        proc = self.proc
        datatype = proc.datatype_engine
        coll_work = proc.coll_engine.work_list(vci)
        p2p = proc.p2p
        netmod_probe = p2p.endpoint_for(vci).idle_probe()
        shmem_probe = (
            p2p.shmem.idle_probe((p2p.rank, vci))
            if p2p.shmem is not None and self.config.use_shmem
            else None
        )

        def busy() -> list[str] | None:
            names: list[str] | None = None
            if datatype.active_tasks:
                names = ["datatype"]
            if coll_work:
                if names is None:
                    names = ["collective"]
                else:
                    names.append("collective")
            if shmem_probe is not None and shmem_probe():
                if names is None:
                    names = ["shmem"]
                else:
                    names.append("shmem")
            if netmod_probe():
                if names is None:
                    names = ["netmod"]
                else:
                    names.append("netmod")
            return names

        return busy

    def bind_stream(self, stream: MpixStream) -> Callable[[], list[str] | None]:
        """Bind the per-VCI busy check onto ``stream``.

        Called by the Proc at stream-table registration (default stream
        construction and ``stream_create``), so by the time any thread
        runs a progress pass the closure is already an attribute on the
        stream — the hot path does one attribute load instead of a dict
        probe, and the benign double-create race of two threads missing
        the dict simultaneously is gone.
        """
        check = self._busy_checks.get(stream.vci)
        if check is None:
            check = self._busy_checks[stream.vci] = self._make_busy_check(
                stream.vci
            )
        stream.busy_check = check
        return check

    def busy_subsystems(self, vci: int) -> list[str]:
        """Registry view: subsystems with pending work on ``vci``."""
        check = self._busy_checks.get(vci)
        if check is None:
            check = self._busy_checks[vci] = self._make_busy_check(vci)
        return check() or []

    # ------------------------------------------------------------------
    # One pass (caller holds the stream lock).
    # ------------------------------------------------------------------
    def run_locked(self, stream: MpixStream, state: ProgressState | None = None) -> bool:
        """One collated pass for ``stream``; True if anything advanced."""
        self.stat_passes.add(1)
        made = False
        skip = state.skip if state is not None else None
        if self._registry_on:
            check = stream.busy_check
            if check is None:
                # Streams not registered through a Proc's stream table
                # (transport-level tests) bind lazily on first pass.
                check = self.bind_stream(stream)
            busy = check()
            # The registry decides the skip set for the whole pass up
            # front: every eligible subsystem is accounted either as one
            # poll or one skipped poll, independent of short-circuiting.
            if skip is None and not stream.skip_subsystems:
                to_poll = (
                    busy
                    if busy is None or self._canonical_order
                    else [n for n in self._order if n in busy]
                )
                n_eligible = len(self._order)
            else:
                eligible = [
                    n
                    for n in self._order
                    if not (
                        (skip is not None and n in skip)
                        or n in stream.skip_subsystems
                    )
                ]
                to_poll = (
                    None if busy is None else [n for n in eligible if n in busy]
                )
                n_eligible = len(eligible)
            skipped = n_eligible - (0 if to_poll is None else len(to_poll))
            if skipped:
                self.stat_skipped_polls.add(skipped)
                stream.stat_skipped_polls += skipped
            if to_poll is not None:
                for name in to_poll:
                    self.stat_subsystem_polls.add(1)
                    stream.stat_subsystem_polls += 1
                    if self._pollers[name](stream):
                        made = True
                        if state is not None:
                            state.progressed.append(name)
                        if self._short_circuit:
                            break
        else:
            for name in self._order:
                if (
                    skip is not None and name in skip
                ) or name in stream.skip_subsystems:
                    continue
                self.stat_subsystem_polls.add(1)
                stream.stat_subsystem_polls += 1
                if self._pollers[name](stream):
                    made = True
                    if state is not None:
                        state.progressed.append(name)
                    if self._short_circuit:
                        break
        if self._poll_async_hooks(stream):
            made = True
            if state is not None:
                state.progressed.append("async")
        return made

    # ------------------------------------------------------------------
    # MPIX async hooks (section 3.3).
    # ------------------------------------------------------------------
    def _poll_async_hooks(self, stream: MpixStream) -> bool:
        # Drain tasks registered from other threads/hooks first.
        inbox = self.proc.drain_async_inbox(stream)
        if inbox:
            stream.async_tasks.extend(inbox)
        tasks = stream.async_tasks
        if not tasks:
            return False
        made = False
        spawned: list[AsyncThing] = []
        error: BaseException | None = None

        def retire(i: int, thing: AsyncThing) -> None:
            # Swap-remove: O(1) retirement in place of rebuilding the
            # whole task list whenever any hook finishes.  The tail task
            # moves into slot ``i`` and is polled next, so every live
            # hook is still polled exactly once per pass.
            last = tasks.pop()
            if last is not thing:
                tasks[i] = last

        i = 0
        while i < len(tasks):
            thing = tasks[i]
            if thing.done:  # retired elsewhere; drop the stale entry
                retire(i, thing)
                continue
            try:
                ret = thing.poll_fn(thing)
            except BaseException as exc:  # noqa: BLE001 - failure injection
                # A faulty hook is retired (never polled again) and the
                # error surfaces to whoever invoked progress, with the
                # engine state left consistent: remaining hooks still
                # run on later passes, spawned tasks are preserved.
                thing.done = True
                self.proc.note_async_done()
                error = exc
                spawned.extend(thing.take_spawned())
                retire(i, thing)
                break
            spawned.extend(thing.take_spawned())
            if ret == ASYNC_DONE:
                thing.done = True
                made = True
                self.proc.note_async_done()
                retire(i, thing)
                continue
            elif ret == ASYNC_PENDING:
                made = True
            elif ret != ASYNC_NOPROGRESS:
                thing.done = True
                self.proc.note_async_done()
                error = MpiError(
                    f"async poll function returned invalid code {ret!r} "
                    "(expected ASYNC_DONE/ASYNC_PENDING/ASYNC_NOPROGRESS)"
                )
                retire(i, thing)
                break
            i += 1
        # Spawned tasks join their stream after the poll pass — same
        # stream directly (we hold its lock), others via their inbox.
        for thing in spawned:
            if thing.stream is stream:
                self.proc.note_async_spawned()
                stream.async_tasks.append(thing)
            else:
                self.proc.enqueue_async(thing)
        if error is not None:
            raise error
        return made

    # ------------------------------------------------------------------
    # Entry point with locking + re-entry guard.
    # ------------------------------------------------------------------
    def stream_progress(
        self, stream: MpixStream, state: ProgressState | None = None
    ) -> bool:
        """``MPIX_Stream_progress``: one locked pass for ``stream``."""
        ident = _sync.get_ident()
        if stream._progress_depth and stream._owner == ident:
            raise ProgressReentryError(
                "progress invoked recursively from inside a progress hook; "
                "use mpix_request_is_complete instead (paper section 3.4)"
            )
        if self._lock_stats:
            t_acquire = self._clock.now()
            with stream.lock:
                stream.stat_lock_wait_s += self._clock.now() - t_acquire
                stream.stat_lock_acquires += 1
                stream._progress_depth += 1
                stream._owner = ident
                stream.stat_progress_calls += 1
                try:
                    return self.run_locked(stream, state)
                finally:
                    stream._progress_depth -= 1
        with stream.lock:
            stream.stat_lock_acquires += 1
            stream._progress_depth += 1
            stream._owner = ident
            stream.stat_progress_calls += 1
            try:
                return self.run_locked(stream, state)
            finally:
                stream._progress_depth -= 1
