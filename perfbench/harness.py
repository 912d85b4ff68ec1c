"""One rep of a workload: set up, measure, check, fingerprint.

A rep builds a fresh federation from its inputs (timed as set-up),
offers the workload's stream through ``search_many`` (the measured
phase), then, outside any timing, stops the writes and the free-running
plane and checks answers against ground truth computed with NumPy from
the generated record matrices.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro import RoadsSystem
from repro.records.store import RecordStore
from repro.sim.metrics import QUERY, UPDATE

from clock import SpeedClock
from layers import patch_layers
from tracer import Tracer
from workloads import (
    SERVICE,
    WARMUP_S,
    Inputs,
    Workload,
    apply_writes,
    bounds,
    columns,
    ground_truth,
)


@dataclass
class Rep:
    """What one rep measured."""

    #: each set-up at the nominal host speed (``clock.py``), and raw
    setup_s: List[float]
    setup_wall_s: List[float]
    #: raw wall seconds of the measured phase (reference samples excluded)
    wall_s: float
    #: the measured phase at the nominal host speed; equal to ``wall_s``
    #: on a traced rep, which takes no reference samples
    norm_s: float
    sim_s: float
    searches: int
    #: deterministic outputs of the rep (hashed into ``fingerprint``)
    sojourns: List[float]
    query_bytes: int
    #: bytes of one coordinated epoch run after the measured phase
    epoch_bytes: int
    #: stream searches not ok, plus searches that failed the answer check
    failed: int
    attempted: int
    #: answer-check mismatches (stream on static records, and probes)
    mismatches: int
    #: oracle confusion counts behind precision and recall (None when
    #: the workload runs no observer)
    quality: Optional[dict]
    #: deterministic per-layer work counts
    counts: Dict[str, float]
    fingerprint: str
    tracer: Optional[Tracer] = field(default=None, repr=False)


def _served(system) -> np.ndarray:
    """Per-server ``(served, busy_seconds)`` of the service queues."""
    return np.array([
        (st["served"], st["busy_seconds"])
        for st in (
            system.network.service_stats(s.server_id) for s in system.hierarchy
        )
    ])


def _set_up(workload: Workload, inputs: Inputs):
    """Stores and a converged, serving federation built from *inputs*."""
    stores = [
        RecordStore.from_arrays(inputs.schema, m, [], owner=f"owner-{i}")
        for i, m in enumerate(inputs.matrix)
    ]
    system = RoadsSystem.build(workload.roads_config(inputs.seed), stores)
    system.enable_service(SERVICE)
    if workload.audited:
        system.attach_quality()
    system.update_plane.start()
    system.sim.run(until=system.sim.now + WARMUP_S)
    return stores, system


def run_rep(
    workload: Workload, inputs: Inputs, *, setups: int = 1, trace: bool = False
) -> Rep:
    """Run one rep, setting up *setups* times; with *trace*, time every
    layer call in the measured phase instead of timing it on the speed
    clock."""
    lo, hi = bounds(inputs.schema)

    # -- set-up: generated matrices to a converged, serving federation ------
    # Set up *setups* times from the same inputs and keep the last
    # federation; each set-up is timed on its own speed clock.
    setup_s, setup_wall_s = [], []
    for i in range(setups):
        if i:
            del stores, system
            gc.collect()
        with SpeedClock() as speed:
            stores, system = _set_up(workload, inputs)
        setup_wall_s.append(speed.work_s)
        setup_s.append(speed.normalized_s)

    # -- measured phase -----------------------------------------------------
    sim, net, plane = system.sim, system.network, system.update_plane
    bytes0 = system.metrics.bytes_by_category
    net0 = net.counters()
    plane0 = dataclasses.replace(plane.counters)
    served0 = _served(system)
    events0, sim0 = sim.processed, sim.now

    matrices = [s.numeric_matrix for s in stores]
    writes = {"applied": 0}

    def write_batch() -> None:
        apply_writes(matrices, inputs, writes["applied"], lo, hi)
        writes["applied"] += 1

    tracer = Tracer() if trace else None
    if tracer is not None:
        write_batch = tracer.wrap("bench.writes", write_batch)
        patch_layers(tracer)
    pending_writes = [sim.schedule(t, write_batch) for t in inputs.write_times]
    arrivals = inputs.arrivals.tolist()
    if tracer is None:
        with SpeedClock() as speed:
            results = system.search_many(inputs.requests, arrivals=arrivals)
        wall_s, norm_s = speed.work_s, speed.normalized_s
    else:
        try:
            t0 = time.perf_counter()
            results = system.search_many(inputs.requests, arrivals=arrivals)
            wall_s = norm_s = time.perf_counter() - t0
        finally:
            tracer.unpatch()
    sim_s = sim.now - sim0
    events = sim.processed - events0

    # -- deterministic outputs of the measured phase --------------------------
    bytes1 = system.metrics.bytes_by_category
    net1 = net.counters()
    plane1 = plane.counters
    served = _served(system) - served0
    root = system.hierarchy.root.server_id
    root_pos = [s.server_id for s in system.hierarchy].index(root)
    contacted = [len(r.outcome.arrivals) for r in results]
    useful = [
        len(
            {h.server_id for h in r.outcome.owner_hits if h.match_count > 0}
            & set(r.outcome.arrivals)
        )
        for r in results
    ]
    full = (plane1.full_sends + plane1.full_reports) - (
        plane0.full_sends + plane0.full_reports
    )
    keepalive = (plane1.keepalive_sends + plane1.keepalive_reports) - (
        plane0.keepalive_sends + plane0.keepalive_reports
    )
    timed = plane1.installs_timed - plane0.installs_timed
    counts = {
        "sim.events": events,
        "net.msgs_sent": net1["sent"] - net0["sent"],
        "net.msgs_lost": net1["lost"] - net0["lost"],
        "net.msgs_shed": net1["shed"] - net0["shed"],
        "net.msgs_dropped": net1["dropped"] - net0["dropped"],
        "net.queue_depth_max": max(
            net.service_stats(s.server_id)["max_depth"] for s in system.hierarchy
        ),
        "net.busy_s_max": float(served[:, 1].max()),
        "roads.timeouts": sum(len(r.outcome.timed_out_servers) for r in results),
        "roads.rejections": sum(r.outcome.rejections for r in results),
        "roads.servers_contacted_mean": float(np.mean(contacted)),
        "roads.useful_contact_frac": sum(useful) / max(sum(contacted), 1),
        "update.full_sends": full,
        "update.keepalive_sends": keepalive,
        "update.keepalive_frac": keepalive / max(full + keepalive, 1),
        "update.installed": plane1.installed - plane0.installed,
        "update.expired": plane1.expired - plane0.expired,
        "update.install_lag_mean_s": (
            (plane1.install_lag_sum - plane0.install_lag_sum) / timed
            if timed else 0.0
        ),
        "update.bytes_per_sim_s": (
            bytes1.get(UPDATE, 0) - bytes0.get(UPDATE, 0)
        ) / sim_s,
        "net.root_served_share": float(served[root_pos, 0])
        / max(float(served[:, 0].sum()), 1.0),
    }
    matches = [r.outcome.total_matches for r in results]
    quality = system.quality.snapshot() if workload.audited else None

    # -- answer check, outside the timed window -------------------------------
    # Stop the writes and the free-running plane, heal the network and run
    # one coordinated epoch through the live plane: its bytes are the
    # update cost per epoch, and afterwards every summary is up to date.
    for ev in pending_writes:
        ev.cancel()
    plane.stop()
    plane.drain()
    net.loss_rate = 0.0
    epoch_bytes = system.refresh().total_bytes
    truth_matrix = inputs.matrix.copy()
    for b in range(writes["applied"]):
        apply_writes(truth_matrix, inputs, b, lo, hi)
    # The stores' current arrays, not the ones captured before the run:
    # writes that no longer reach the system show here. (A temporary, so
    # the stacked copy does not stay alive into ``peak_rss_mb``.)
    live_equal = np.array_equal(
        np.stack([s.numeric_matrix for s in stores]), truth_matrix
    )
    mismatches = 0 if live_equal else 1
    truth_cols = columns(truth_matrix)
    truth: Dict[int, int] = {}

    def expected(index: int) -> int:
        if index not in truth:
            truth[index] = ground_truth(
                truth_cols, inputs.schema, inputs.queries[index]
            )
        return truth[index]

    bad = [not r.ok for r in results]
    if writes["applied"] == 0 and workload.loss_rate == 0:
        # Static records on a loss-free network: every search must be exact.
        wrong = [m != expected(q) for m, q in zip(matches, inputs.pool_index)]
        mismatches += sum(wrong)
        bad = [b or w for b, w in zip(bad, wrong)]
    failed = sum(bad)
    probes = system.search_many(inputs.probes)
    probe_matches = [r.outcome.total_matches for r in probes]
    wrong = sum(
        1
        for r, m, q in zip(probes, probe_matches, inputs.probe_index)
        if not r.ok or m != expected(q)
    )
    mismatches += wrong
    failed += wrong

    fingerprint = _fingerprint({
        "sojourns": [r.sojourn for r in results],
        "matches": matches,
        "probe_matches": probe_matches,
        "bytes": [bytes0, bytes1],
        "net": [net0, net1],
        "delivered_by_kind": dict(sorted(net.delivered_by_kind.items())),
        "plane": dataclasses.asdict(plane1),
        "sim": [events, sim_s],
        "epoch_bytes": epoch_bytes,
        "writes": writes["applied"],
        "quality": quality,
    })
    return Rep(
        setup_s=setup_s,
        setup_wall_s=setup_wall_s,
        wall_s=wall_s,
        norm_s=norm_s,
        sim_s=sim_s,
        searches=len(results),
        sojourns=[r.sojourn for r in results],
        query_bytes=bytes1.get(QUERY, 0) - bytes0.get(QUERY, 0),
        epoch_bytes=epoch_bytes,
        failed=failed,
        attempted=len(results) + len(probes),
        mismatches=mismatches,
        quality=quality,
        counts=counts,
        fingerprint=fingerprint,
        tracer=tracer,
    )


def _fingerprint(outputs: dict) -> str:
    """A short hash of deterministic outputs (floats hashed exactly)."""
    blob = json.dumps(outputs, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
