"""Tracing from outside the program: spans around the public calls into
each layer, Spark stage metrics per job group, and the per-layer numbers
derived from them.

``instrument`` patches the layer boundaries for the duration of a
``with`` block and restores them afterwards; nothing under ``src/`` is
edited. Spans stay in memory and are written once, with
``Tracer.dump``.
"""
from __future__ import annotations

import contextlib
import functools
import json
import time
from pathlib import Path

from py4j.protocol import Py4JJavaError

from repro.graphs.generators import GraphData
from repro.runtime import RoundContext

# Span names of the layer boundaries.
INPUT = "graphs.to_spark"
CREATE_DF = "graphs.create_df"
DHT_BUILD = "dht.build"
BROADCAST = "dht.broadcast"
BARRIER = "runtime.barrier"
ACTION = "spark.action"
CALL = "call"

_ACTIONS = ("toPandas", "collect", "count", "localCheckpoint")


class Tracer:
    """In-memory span recorder: (name, start, end, parent, call id)."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._call: int | None = None

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "call": self._call,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def call(self, name: str):
        """Root span of one algorithm call; its id tags every child."""
        self._call = len(self.spans)
        try:
            with self.span(CALL, call_name=name) as rec:
                yield rec
        finally:
            self._call = None

    def wrap(self, fn, name: str, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(rec, result)
                return result

        return traced

    def children(self, call_id: int) -> list[dict]:
        return [s for s in self.spans if s["call"] == call_id and s["id"] != call_id]

    def dump(self, path: Path, **header) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "spans": self.spans}, default=str))


def _record_payload(rec: dict, dht) -> None:
    rec["attrs"]["payload_bytes"] = int(dht.payload_bytes)


@contextlib.contextmanager
def instrument(tracer: Tracer, spark):
    """Patch the layer boundaries listed in ``perfbench/README.md``.

    ``build_sorted_adjacency`` and ``build_cycle_store`` are patched in
    every module that imported them by name.
    """
    import repro.ampc as ampc_pkg
    import repro.ampc.dht as dht_mod
    import repro.core.cycle as cycle_mod
    import repro.core.matching as matching_mod
    import repro.core.mis as mis_mod
    import repro.core.msf as msf_mod

    targets = [
        (GraphData, "to_spark", INPUT, None),
        (type(spark), "createDataFrame", CREATE_DF, None),
        (type(spark.sparkContext), "broadcast", BROADCAST, None),
        (RoundContext, "barrier", BARRIER, None),
    ]
    for mod in (ampc_pkg, dht_mod, mis_mod, matching_mod, msf_mod, cycle_mod):
        for attr in ("build_sorted_adjacency", "build_cycle_store"):
            if attr in vars(mod):
                targets.append((mod, attr, DHT_BUILD, _record_payload))
    df_cls = type(spark.range(1))
    targets += [(df_cls, attr, ACTION, None) for attr in _ACTIONS]

    saved = []
    try:
        for owner, attr, name, on_result in targets:
            saved.append((owner, attr, attr in vars(owner), getattr(owner, attr)))
            setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, on_result))
        yield tracer
    finally:
        for owner, attr, own, orig in reversed(saved):
            if own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)


def group_stats(sc, group: str) -> dict:
    """Stage metrics of every job in ``group``, read from the status store
    once the listener bus has delivered all events."""
    jsc = sc._jsc.sc()
    jsc.listenerBus().waitUntilEmpty()
    tracker = sc.statusTracker()
    jobs = tracker.getJobIdsForGroup(group)
    stage_ids: set[int] = set()
    for job in jobs:
        info = tracker.getJobInfo(job)
        if info is not None:
            stage_ids.update(info.stageIds)
    store = jsc.statusStore()
    write_bytes = run_ms = missing = 0
    for sid in stage_ids:
        try:
            stage = store.lastStageAttempt(sid)
        except Py4JJavaError:  # evicted from the status store
            missing += 1
            continue
        write_bytes += stage.shuffleWriteBytes()
        run_ms += stage.executorRunTime()
    return {
        "jobs": len(jobs),
        "stages": len(stage_ids),
        "missing_stages": missing,
        "shuffle_write_bytes": write_bytes,
        "executor_run_s": run_ms / 1000.0,
    }


def _has_ancestor(spans_by_id: dict, rec: dict, names: tuple[str, ...]) -> bool:
    parent = rec["parent"]
    while parent is not None:
        p = spans_by_id[parent]
        if p["name"] in names:
            return True
        parent = p["parent"]
    return False


def _dur(recs) -> float:
    return sum(r["end"] - r["start"] for r in recs)


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def call_layers(tracer: Tracer, call_id: int) -> dict:
    """Layer times of one traced call.

    - ``input_s``: ``GraphData.to_spark`` plus any ``createDataFrame``
      outside it that ends before the call's first Spark action (later
      ones upload per-phase mappings, not the input);
    - ``finish_s``: from the end of the last Spark action to return;
    - ``self_s``: wall minus the input, DHT build, broadcast and finish
      spans (the adaptive rounds and driver Python between them);
    - ``action_s``: driver blocked in outermost Spark actions.
    """
    root = tracer.spans[call_id]
    by_id = {s["id"]: s for s in tracer.spans}
    kids = tracer.children(call_id)
    wall = root["end"] - root["start"]
    actions = [s for s in kids if s["name"] == ACTION and not _has_ancestor(by_id, s, (ACTION,))]
    first_action = min((s["start"] for s in actions), default=root["end"])
    last_action = max((s["end"] for s in actions), default=root["end"])
    inputs = [s for s in kids if s["name"] == INPUT and not _has_ancestor(by_id, s, (INPUT,))]
    inputs += [
        s
        for s in kids
        if s["name"] == CREATE_DF
        and s["end"] <= first_action
        and not _has_ancestor(by_id, s, (INPUT, DHT_BUILD, BARRIER))
    ]
    builds = [s for s in kids if s["name"] == DHT_BUILD]
    broadcasts = [s for s in kids if s["name"] == BROADCAST]
    barriers = [s for s in kids if s["name"] == BARRIER]
    finish = root["end"] - last_action
    # Direct children run one after another on the driver thread, so they
    # cannot sum past the call's wall; checked rather than assumed.
    direct = [s for s in kids if s["parent"] == call_id]
    excluded = _covered(
        [(s["start"], s["end"]) for s in inputs + builds + broadcasts]
        + [(last_action, root["end"])]
    )
    return {
        "wall_s": wall,
        "input_s": _dur(inputs),
        "dht_build_s": _dur(builds),
        "dht_payload_bytes": sum(s["attrs"].get("payload_bytes", 0) for s in builds),
        "dht_broadcast_s": _dur(broadcasts),
        "barrier_s": _dur(barriers),
        "action_s": _dur(actions),
        "finish_s": finish,
        "self_s": wall - excluded,
        "children_s": _dur(direct),
    }

