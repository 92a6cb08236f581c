"""Per-layer tracing from outside the runtime.

The benchmark never edits ``src/``: it times each layer by replacing the
layer's public entry points (class methods and module functions) with a
thin wrapper for the duration of a traced run, then restores them.
Wrappers must be installed *before* the world is built, because some
objects bind methods at construction time.

Each wrapped call becomes a span (name, start, end, parent span, op id).
Aggregates -- calls, total time, self time (span time minus the time its
child spans cover), useful outcomes, items, bytes -- are kept per entry
point as the calls happen; up to ``span_cap`` raw spans are kept in
memory and written out as Chrome trace-event JSON when the run ends.

Only calls made on the tracer's own thread while an operation is open
(between :meth:`Tracer.op_begin` and :meth:`Tracer.op_end`) are recorded.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable

_now = time.perf_counter_ns


def _truthy(r: Any) -> bool:
    return bool(r)


def _not_none(r: Any) -> bool:
    return r is not None


def _async_done(r: Any) -> bool:
    return r == 0  # ASYNC_DONE


def _poll_batch_items(r: Any) -> int:
    return len(r[0]) + len(r[1])


def _shmem_made(r: Any) -> bool:
    return bool(r[2])


def _encode_bytes(args: tuple, r: Any) -> int:
    meta, header, payload = r
    return len(meta) + len(header) + memoryview(payload).nbytes


def _decode_bytes(args: tuple, r: Any) -> int:
    # decode_frame(buf, pos) -> (packet, end)
    return r[1] - args[1]


def _reduce_bytes(args: tuple, r: Any) -> int:
    # Op.apply(self, inbuf, inoutbuf, count, datatype)
    return args[3] * args[4].size


class _Stat:
    __slots__ = ("calls", "total_ns", "self_ns", "useful", "items", "nbytes")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.useful = 0
        self.items = 0
        self.nbytes = 0


#: (layer, target, attribute, span name); ``target`` is "module:Class",
#: or "module" for module-level functions.  The layer names the span's
#: category in the Chrome trace.
_ENTRY_POINTS: list[tuple[str, str, str, str]] = [
    ("core.comm", "repro.core.comm:Comm", "isend", "comm.isend"),
    ("core.comm", "repro.core.comm:Comm", "irecv", "comm.irecv"),
    ("core.comm", "repro.core.comm:Comm", "send", "comm.send"),
    ("core.comm", "repro.core.comm:Comm", "recv", "comm.recv"),
    ("core.comm", "repro.core.comm:Comm", "iallreduce", "comm.iallreduce"),
    ("core.comm", "repro.core.comm:Comm", "allreduce", "comm.allreduce"),
    ("core.mpi", "repro.core.mpi:Proc", "wait", "waiter.wait"),
    ("core.mpi", "repro.core.mpi:Proc", "waitall", "waiter.waitall"),
    ("core.progress", "repro.core.mpi:Proc", "stream_progress", "progress.pass"),
    ("core.async_ext", "repro.core.mpi:Proc", "async_start", "async.start"),
    ("p2p.protocol", "repro.p2p.protocol:P2PEngine", "isend", "p2p.isend"),
    ("p2p.protocol", "repro.p2p.protocol:P2PEngine", "irecv", "p2p.irecv"),
    ("p2p.protocol", "repro.p2p.protocol:P2PEngine", "progress_netmod", "p2p.progress_netmod"),
    ("p2p.protocol", "repro.p2p.protocol:P2PEngine", "progress_shmem", "p2p.progress_shmem"),
    ("p2p.matching", "repro.p2p.matching:MatchShard", "recv_match_or_post", "matching.recv"),
    ("p2p.matching", "repro.p2p.matching:MatchShard", "arrival_match_or_add", "matching.arrival"),
    ("netmod", "repro.netmod.endpoint:Endpoint", "post_send", "netmod.post_send"),
    ("netmod", "repro.netmod.endpoint:Endpoint", "poll_batch", "netmod.poll"),
    ("netmod", "repro.netmod.fabric:Fabric", "deliver", "netmod.deliver"),
    ("shmem", "repro.shmem.transport:ShmemTransport", "post_send", "shmem.post_send"),
    ("shmem", "repro.shmem.transport:ShmemTransport", "progress_batch", "shmem.poll"),
    ("coll", "repro.coll.sched:CollSchedEngine", "submit", "coll.submit"),
    ("coll", "repro.coll.sched:CollSchedEngine", "progress", "coll.poll"),
    ("exts.schedule_ext", "repro.exts.schedule_ext:PlanCache", "get_or_build", "sched_ir.get_or_build"),
    ("exts.schedule_ext", "repro.exts.schedule_ext:PlanExecutor", "start", "sched_ir.start"),
    ("exts.schedule_ext", "repro.exts.schedule_ext:PlanExecutor", "poll", "sched_ir.poll"),
    ("datatype", "repro.datatype.ops:Op", "apply", "datatype.reduce"),
    ("datatype", "repro.datatype.engine:DatatypeEngine", "progress", "datatype.poll"),
    ("mem.pool", "repro.mem.pool:BufferPool", "acquire", "pool.acquire"),
    ("mem.pool", "repro.mem.pool:Lease", "release", "pool.release"),
    ("procmod.wire", "repro.procmod.wire", "encode_frame", "wire.encode"),
    ("procmod.wire", "repro.procmod.wire", "decode_frame", "wire.decode"),
    ("procmod.shmseg", "repro.procmod.shmseg:ShmLink", "try_send", "shmseg.try_send"),
    ("procmod.shmseg", "repro.procmod.shmseg:ShmLink", "try_recv", "shmseg.try_recv"),
    ("procmod.fabric", "repro.procmod.fabric:ProcFabric", "pump", "procfabric.pump"),
    ("procmod.fabric", "repro.procmod.fabric:ProcFabric", "deliver", "procfabric.deliver"),
]

#: span name -> layer; ``async.poll`` is the benchmark's own poll hook
_LAYER_OF = {name: layer for layer, _target, _attr, name in _ENTRY_POINTS}
_LAYER_OF["async.poll"] = "core.async_ext"

#: span name -> (useful predicate on the result, items per call, bytes per call)
_OUTCOME: dict[str, tuple[Callable | None, Callable | None, Callable | None]] = {
    "progress.pass": (_truthy, None, None),
    "p2p.progress_netmod": (_truthy, None, None),
    "p2p.progress_shmem": (_truthy, None, None),
    "matching.recv": (_not_none, None, None),
    "matching.arrival": (_not_none, None, None),
    "netmod.poll": (_poll_batch_items, _poll_batch_items, None),
    "shmem.poll": (_shmem_made, None, None),
    "coll.poll": (_truthy, None, None),
    "sched_ir.poll": (_async_done, None, None),
    "async.poll": (_async_done, None, None),
    "datatype.reduce": (None, None, _reduce_bytes),
    "datatype.poll": (_truthy, None, None),
    "wire.encode": (None, None, _encode_bytes),
    "wire.decode": (None, None, _decode_bytes),
    "shmseg.try_send": (_truthy, None, None),
    "shmseg.try_recv": (_not_none, None, None),
    "procfabric.pump": (_truthy, None, None),
}


def _resolve(target: str):
    import importlib

    mod_name, _, cls_name = target.partition(":")
    obj = importlib.import_module(mod_name)
    return getattr(obj, cls_name) if cls_name else obj


class Tracer:
    """Span recorder plus per-entry-point aggregates for one process."""

    def __init__(self, *, span_cap: int = 0, pid: int = 0) -> None:
        self.span_cap = span_cap
        self.pid = pid
        self.stats: dict[str, _Stat] = {}
        #: (parent span name, child span name) -> calls
        self.edges: dict[tuple[str, str], int] = {}
        #: (name, start_ns, end_ns, parent index, op id)
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.op = -1
        self.op_ns = 0
        self.top_ns = 0
        self.extra: dict[str, float] = {}
        self._op_t0 = 0
        self._stack: list[list] = []
        self._tid = threading.get_ident()
        self._saved: list[tuple[Any, str, Any]] = []

    # -- operations ---------------------------------------------------
    def op_begin(self, op_id: int) -> None:
        self.op = op_id
        self._op_t0 = _now()

    def op_end(self) -> None:
        self.op_ns += _now() - self._op_t0
        self.op = -1

    def count(self, key: str, n: float = 1) -> None:
        self.extra[key] = self.extra.get(key, 0) + n

    # -- wrapping -----------------------------------------------------
    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` traced as span ``name`` (entry points and the benchmark's
        own callables, such as its poll hooks)."""
        stat = self.stats.setdefault(name, _Stat())
        useful_fn, items_fn, bytes_fn = _OUTCOME.get(name, (None, None, None))
        stack = self._stack
        spans = self.spans
        edges = self.edges
        cap = self.span_cap
        tid = self._tid
        get_ident = threading.get_ident
        tracer = self

        def traced(*args, **kwargs):
            op = tracer.op
            if op < 0 or get_ident() != tid:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            idx = len(spans)
            if idx < cap:
                spans.append(None)
            else:
                idx = -1
            frame = [0, idx, name]  # [child ns, span index, name]
            stack.append(frame)
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _now()
                stack.pop()
                dur = t1 - t0
                stat.calls += 1
                stat.total_ns += dur
                stat.self_ns += dur - frame[0]
                if parent is None:
                    tracer.top_ns += dur
                    pidx = -1
                else:
                    parent[0] += dur
                    pidx = parent[1]
                    key = (parent[2], name)
                    edges[key] = edges.get(key, 0) + 1
                if idx >= 0:
                    spans[idx] = (name, t0, t1, pidx, op)
            if useful_fn is not None and useful_fn(result):
                stat.useful += 1
            if items_fn is not None:
                stat.items += items_fn(result)
            if bytes_fn is not None:
                stat.nbytes += bytes_fn(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every layer entry point with its traced wrapper."""
        for _layer, target, attr, name in _ENTRY_POINTS:
            obj = _resolve(target)
            orig = obj.__dict__[attr]
            self._saved.append((obj, attr, orig))
            setattr(obj, attr, self.wrap(name, orig))

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._saved):
            setattr(obj, attr, orig)
        self._saved.clear()

    # -- results ------------------------------------------------------
    def summary(self) -> dict:
        """Picklable aggregates (returned across the rank-process pipe)."""
        return {
            "stats": {
                k: [s.calls, s.total_ns, s.self_ns, s.useful, s.items, s.nbytes]
                for k, s in self.stats.items()
            },
            "edges": {f"{a}>{b}": n for (a, b), n in self.edges.items()},
            "op_ns": self.op_ns,
            "top_ns": self.top_ns,
            "extra": dict(self.extra),
        }

    def chrome_events(self, t_origin_ns: int) -> list[dict]:
        events = []
        for i, (name, t0, t1, parent, op) in enumerate(self.spans):
            events.append(
                {
                    "name": name,
                    "cat": _LAYER_OF[name],
                    "ph": "X",
                    "ts": (t0 - t_origin_ns) / 1000.0,
                    "dur": (t1 - t0) / 1000.0,
                    "pid": self.pid,
                    "tid": self.pid,
                    "args": {"id": i, "parent": parent, "op": op},
                }
            )
        return events


# ----------------------------------------------------------------------
# Per-layer metrics from one or more tracer summaries (one per process).
# ----------------------------------------------------------------------

#: (metric name, unit) in report order
PER_LAYER: list[tuple[str, str]] = [
    ("comm.calls_per_op", "count"),
    ("comm.self_us_per_op", "us"),
    ("waiter.self_us_per_op", "us"),
    ("waiter.passes_per_wait", "count"),
    ("progress.passes_per_op", "count"),
    ("progress.self_us_per_pass", "us"),
    ("progress.useful_ratio", "ratio"),
    ("async.polls_per_done", "count"),
    ("async.poll_self_us", "us"),
    ("async.start_self_us", "us"),
    ("p2p.self_us_per_op", "us"),
    ("p2p.poll_useful_ratio", "ratio"),
    ("matching.calls_per_op", "count"),
    ("matching.self_us_per_op", "us"),
    ("matching.unexpected_ratio", "ratio"),
    ("netmod.calls_per_op", "count"),
    ("netmod.self_us_per_op", "us"),
    ("netmod.poll_useful_ratio", "ratio"),
    ("netmod.items_per_poll", "count"),
    ("shmem.calls_per_op", "count"),
    ("shmem.self_us_per_op", "us"),
    ("shmem.poll_useful_ratio", "ratio"),
    ("coll.calls_per_op", "count"),
    ("coll.self_us_per_op", "us"),
    ("coll.poll_useful_ratio", "ratio"),
    ("sched_ir.plan_hit_ratio", "ratio"),
    ("sched_ir.self_us_per_op", "us"),
    ("sched_ir.polls_per_done", "count"),
    ("datatype.calls_per_op", "count"),
    ("datatype.self_us_per_op", "us"),
    ("datatype.reduce_mb_s", "MB/s"),
    ("pool.calls_per_op", "count"),
    ("pool.self_us_per_op", "us"),
    ("wire.frames_per_op", "count"),
    ("wire.self_us_per_op", "us"),
    ("wire.mb_s", "MB/s"),
    ("shmseg.self_us_per_op", "us"),
    ("shmseg.send_refused_ratio", "ratio"),
    ("shmseg.recv_useful_ratio", "ratio"),
    ("procfabric.pumps_per_op", "count"),
    ("procfabric.pump_useful_ratio", "ratio"),
    ("procfabric.self_us_per_op", "us"),
    ("runtime.world_build_ms", "ms"),
    ("runtime.spawn_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summaries: list[dict], **runtime: float) -> dict[str, float]:
    """Per-layer metrics, summed over ``summaries``.

    ``_per_op`` divides by the end-to-end operations the workload
    completed (the ``ops`` extra count); ``runtime`` supplies the
    ``runtime.*`` and ``trace.overhead_ratio`` values measured outside
    the spans.
    """
    stats: dict[str, list[int]] = {}
    edges: dict[str, int] = {}
    extra: dict[str, float] = {}
    op_ns = top_ns = 0
    for s in summaries:
        for k, v in s["stats"].items():
            acc = stats.setdefault(k, [0] * len(v))
            for i, x in enumerate(v):
                acc[i] += x
        for k, n in s["edges"].items():
            edges[k] = edges.get(k, 0) + n
        for k, n in s["extra"].items():
            extra[k] = extra.get(k, 0) + n
        op_ns += s["op_ns"]
        top_ns += s["top_ns"]
    zero = [0, 0, 0, 0, 0, 0]

    def col(prefix: str, i: int) -> float:
        return sum(v[i] for k, v in stats.items() if k.startswith(prefix))

    def one(name: str) -> list[int]:
        return stats.get(name, zero)

    ops = extra.get("ops", 0)

    def per_op(x: float) -> float:
        return _ratio(x, ops)

    def calls(prefix: str) -> float:
        return col(prefix, 0)

    def self_us(prefix: str) -> float:
        return col(prefix, 2) / 1e3

    waits = calls("waiter.")
    passes_in_wait = sum(n for k, n in edges.items() if k.startswith("waiter.") and k.endswith(">progress.pass"))
    prog = one("progress.pass")
    apoll = one("async.poll")
    astart = one("async.start")
    p2p_polls = [one("p2p.progress_netmod"), one("p2p.progress_shmem")]
    mrecv = one("matching.recv")
    npoll = one("netmod.poll")
    spoll = one("shmem.poll")
    cpoll = one("coll.poll")
    reduce = one("datatype.reduce")
    enc, dec = one("wire.encode"), one("wire.decode")
    tx, rx = one("shmseg.try_send"), one("shmseg.try_recv")
    pump = one("procfabric.pump")
    m = {
        "comm.calls_per_op": per_op(calls("comm.")),
        "comm.self_us_per_op": per_op(self_us("comm.")),
        "waiter.self_us_per_op": per_op(self_us("waiter.")),
        "waiter.passes_per_wait": _ratio(passes_in_wait, waits),
        "progress.passes_per_op": per_op(prog[0]),
        "progress.self_us_per_pass": _ratio(prog[2] / 1e3, prog[0]),
        "progress.useful_ratio": _ratio(prog[3], prog[0]),
        "async.polls_per_done": _ratio(apoll[0], apoll[3]),
        "async.poll_self_us": _ratio(apoll[2] / 1e3, apoll[0]),
        "async.start_self_us": _ratio(astart[2] / 1e3, astart[0]),
        "p2p.self_us_per_op": per_op(self_us("p2p.")),
        "p2p.poll_useful_ratio": _ratio(sum(p[3] for p in p2p_polls), sum(p[0] for p in p2p_polls)),
        "matching.calls_per_op": per_op(calls("matching.")),
        "matching.self_us_per_op": per_op(self_us("matching.")),
        "matching.unexpected_ratio": _ratio(mrecv[3], mrecv[0]),
        "netmod.calls_per_op": per_op(calls("netmod.")),
        "netmod.self_us_per_op": per_op(self_us("netmod.")),
        "netmod.poll_useful_ratio": _ratio(npoll[3], npoll[0]),
        "netmod.items_per_poll": _ratio(npoll[4], npoll[3]),
        "shmem.calls_per_op": per_op(calls("shmem.")),
        "shmem.self_us_per_op": per_op(self_us("shmem.")),
        "shmem.poll_useful_ratio": _ratio(spoll[3], spoll[0]),
        "coll.calls_per_op": per_op(calls("coll.")),
        "coll.self_us_per_op": per_op(self_us("coll.")),
        "coll.poll_useful_ratio": _ratio(cpoll[3], cpoll[0]),
        "sched_ir.plan_hit_ratio": _ratio(extra.get("plan_hits", 0), extra.get("plan_lookups", 0)),
        "sched_ir.self_us_per_op": per_op(self_us("sched_ir.")),
        "sched_ir.polls_per_done": _ratio(one("sched_ir.poll")[0], one("sched_ir.start")[0]),
        "datatype.calls_per_op": per_op(calls("datatype.")),
        "datatype.self_us_per_op": per_op(self_us("datatype.")),
        "datatype.reduce_mb_s": _ratio(reduce[5] * 1e3, reduce[1]),
        "pool.calls_per_op": per_op(calls("pool.")),
        "pool.self_us_per_op": per_op(self_us("pool.")),
        "wire.frames_per_op": per_op(enc[0]),
        "wire.self_us_per_op": per_op(self_us("wire.")),
        "wire.mb_s": _ratio((enc[5] + dec[5]) * 1e3, enc[1] + dec[1]),
        "shmseg.self_us_per_op": per_op(self_us("shmseg.")),
        "shmseg.send_refused_ratio": _ratio(tx[0] - tx[3], tx[0]),
        "shmseg.recv_useful_ratio": _ratio(rx[3], rx[0]),
        "procfabric.pumps_per_op": per_op(pump[0]),
        "procfabric.pump_useful_ratio": _ratio(pump[3], pump[0]),
        "procfabric.self_us_per_op": per_op(self_us("procfabric.")),
        "trace.coverage": _ratio(top_ns, op_ns),
    }
    m.update(runtime)
    return {name: m.get(name, 0.0) for name, _unit in PER_LAYER}
