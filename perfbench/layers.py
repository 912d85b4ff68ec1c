"""Which ``repro`` calls the traced run times, and the per-layer rows.

Each layer is one ``repro`` package; its row names are
``<layer>.<call>.<stat>``. Class methods are patched on their class;
the routing functions are patched where they are looked up: in the
client module (live query path) and in ``repro.overlay.routing`` (the
oracle imports them from there on every shadow walk, and
``decide_start`` calls ``decide_descent`` through it).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from tracer import Tracer

#: (layer row, unit) for every per-layer metric, in report order
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.step.self_s", "s"),
    ("net.send.calls", "count"),
    ("net.send.self_s", "s"),
    ("net.send_many.calls", "count"),
    ("net.send_many.self_s", "s"),
    ("net.msgs_sent", "count"),
    ("net.msgs_lost", "count"),
    ("net.msgs_shed", "count"),
    ("net.msgs_dropped", "count"),
    ("net.queue_depth_max", "count"),
    ("net.busy_s_max", "sim_s"),
    ("net.root_served_share", "fraction"),
    ("roads.search_many.self_s", "s"),
    ("roads.submit.calls", "count"),
    ("roads.submit.self_s", "s"),
    ("roads.timeouts", "count"),
    ("roads.rejections", "count"),
    ("roads.servers_contacted_mean", "count"),
    ("roads.useful_contact_frac", "fraction"),
    ("overlay.decide.calls", "count"),
    ("overlay.decide.self_s", "s"),
    ("overlay.replicate.calls", "count"),
    ("overlay.replicate.self_s", "s"),
    ("summaries.may_match.calls", "count"),
    ("summaries.may_match.self_s", "s"),
    ("summaries.may_match.true_frac", "fraction"),
    ("summaries.build.calls", "count"),
    ("summaries.build.self_s", "s"),
    ("summaries.merge.calls", "count"),
    ("summaries.merge.self_s", "s"),
    ("summaries.fingerprint.calls", "count"),
    ("summaries.fingerprint.self_s", "s"),
    ("hierarchy.export.calls", "count"),
    ("hierarchy.export.self_s", "s"),
    ("hierarchy.install.calls", "count"),
    ("hierarchy.install.self_s", "s"),
    ("update.full_sends", "count"),
    ("update.keepalive_sends", "count"),
    ("update.keepalive_frac", "fraction"),
    ("update.installed", "count"),
    ("update.expired", "count"),
    ("update.install_lag_mean_s", "sim_s"),
    ("update.bytes_per_sim_s", "B/sim_s"),
    ("records.mask_range.calls", "count"),
    ("records.mask_range.self_s", "s"),
    ("records.rows_scanned", "count"),
    ("policy.answer.calls", "count"),
    ("policy.answer.self_s", "s"),
    ("observer.audit.calls", "count"),
    ("observer.audit.cum_s", "s"),
    ("observer.total_s", "s"),
    ("observer.precision", "fraction"),
    ("observer.recall", "fraction"),
    ("system.total_s", "s"),
    ("bench.writes_s", "s"),
    ("bench.trace_overhead", "ratio"),
    ("bench.unattributed_frac", "fraction"),
)


def patch_layers(tracer: Tracer) -> None:
    """Install a traced wrapper on every layer call (``tracer.unpatch``
    undoes it)."""
    import repro.overlay.routing as routing
    import repro.roads.client as client
    from repro.hierarchy.aggregation import SummaryExporter, SummaryUpdate
    from repro.net.transport import Network
    from repro.overlay.replication import ReplicaPusher
    from repro.records.store import RecordStore
    from repro.roads.policy import PolicyTable
    from repro.roads.system import RoadsSystem
    from repro.sim.engine import Simulator
    from repro.summaries.histogram import HistogramSummary
    from repro.telemetry.quality import QualityPlane

    counts = tracer.counts

    def count_true(matched) -> None:
        if matched:
            counts["summaries.may_match.true"] += 1

    def count_rows(mask) -> None:
        counts["records.rows_scanned"] += len(mask)

    tracer.patch(Simulator, "step", "sim.step")
    tracer.patch(Network, "send", "net.send")
    tracer.patch(Network, "send_many", "net.send_many")
    tracer.patch(RoadsSystem, "search_many", "roads.search_many")
    tracer.patch(RoadsSystem, "submit", "roads.submit")
    for module in (client, routing):
        for fn in ("decide_start", "decide_descent", "decide_local"):
            tracer.patch(module, fn, "overlay.decide")
    tracer.patch(ReplicaPusher, "build_updates", "overlay.replicate")
    tracer.patch(
        HistogramSummary, "may_match", "summaries.may_match", on_result=count_true
    )
    tracer.patch(HistogramSummary, "from_values", "summaries.build")
    tracer.patch(HistogramSummary, "merge", "summaries.merge")
    tracer.patch(HistogramSummary, "merge_many", "summaries.merge")
    tracer.patch(HistogramSummary, "fingerprint", "summaries.fingerprint")
    tracer.patch(SummaryExporter, "build_update", "hierarchy.export")
    tracer.patch(SummaryUpdate, "install", "hierarchy.install")
    tracer.patch(
        RecordStore, "mask_range", "records.mask_range", on_result=count_rows
    )
    tracer.patch(PolicyTable, "answer", "policy.answer")
    tracer.patch(QualityPlane, "audit", "observer.audit", observer=True)
    tracer.patch(
        QualityPlane, "owner_false_positive", "observer.owner_fp", observer=True
    )


def layer_rows(
    tracer: Tracer,
    counts: Dict[str, float],
    quality: Optional[dict],
    *,
    traced_wall: float,
    untraced_wall: float,
) -> Dict[str, float]:
    """Every per-layer metric of one traced rep.

    *counts* are the rep's deterministic work counts (the same in the
    untraced rep) and *quality* its oracle snapshot, if an observer ran;
    observer rows are zero without one. Times come from the spans;
    ``sim.events_per_s`` uses the untraced wall time, since tracing slows
    every event.
    """
    spans = tracer.breakdown()

    def stat(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0.0)

    rows: Dict[str, float] = dict(counts)
    rows["sim.events_per_s"] = counts["sim.events"] / untraced_wall
    for name in (
        "sim.step", "net.send", "net.send_many", "roads.submit",
        "overlay.decide", "overlay.replicate", "summaries.may_match",
        "summaries.build", "summaries.merge", "summaries.fingerprint",
        "hierarchy.export", "hierarchy.install", "records.mask_range",
        "policy.answer",
    ):
        rows[f"{name}.calls"] = stat(name, "calls")
        rows[f"{name}.self_s"] = stat(name, "self_s")
    rows["roads.search_many.self_s"] = stat("roads.search_many", "self_s")
    may = stat("summaries.may_match", "calls")
    rows["summaries.may_match.true_frac"] = (
        tracer.counts["summaries.may_match.true"] / may if may else 0.0
    )
    rows["records.rows_scanned"] = tracer.counts["records.rows_scanned"]
    rows["observer.audit.calls"] = stat("observer.audit", "calls")
    rows["observer.audit.cum_s"] = stat("observer.audit", "cum_s")
    observer = tracer.observer_total()
    rows["observer.total_s"] = observer
    rows["observer.precision"] = quality["precision"] if quality else 0.0
    rows["observer.recall"] = quality["recall"] if quality else 0.0
    rows["system.total_s"] = traced_wall - observer
    rows["bench.writes_s"] = stat("bench.writes", "cum_s")
    rows["bench.trace_overhead"] = traced_wall / untraced_wall
    # Wall time in no layer call: outside every span, or in the
    # dispatcher's own time (event dispatch plus handlers of untraced
    # code). The ``search_many`` umbrella spans the whole window, so it
    # covers nothing here; its self time is the poll, a roads row.
    rows["bench.unattributed_frac"] = (
        traced_wall - tracer.covered() + stat("sim.step", "self_s")
    ) / traced_wall
    return {name: rows[name] for name, _ in PER_LAYER}
