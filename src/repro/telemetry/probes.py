"""Federation health probes: continuous sampling and SLO-style reports.

A :class:`HealthProbe` rides the simulator on a fixed sim-time cadence
and snapshots the signals that tell an operator whether the federation
is healthy *right now*: service-queue depths, shed/lost/dropped message
counts, the dispatcher's pending-event backlog, per-server summary
staleness (from :meth:`UpdatePlane.staleness_snapshot`) and the
replication-coverage fraction (how much of the overlay's expected
replica set each server actually holds). Sampling is passive — no
messages are sent, no randomness is consumed — so enabling a probe
never changes simulation outcomes.

:meth:`HealthProbe.report` folds the sampled series into a
:class:`HealthReport`: one :class:`HealthCheck` per SLO dimension with
the observed value, the threshold it was judged against, and a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

#: probe sample event name on the telemetry bus
PROBE_EVENT = "probe.sample"


@dataclass(frozen=True)
class HealthSample:
    """One probe tick's snapshot of the federation."""

    t: float
    #: messages currently queued or in service across all service queues
    queue_depth_total: int
    #: deepest single service queue at this instant
    queue_depth_max: int
    #: cumulative network counters at this instant
    sent: int
    delivered: int
    lost: int
    dropped: int
    shed: int
    #: dispatcher events not yet run (in-flight messages + timers)
    pending: int
    #: soft-state summary entries held across the federation
    summary_entries: int
    #: mean/max age of held summaries, seconds
    summary_age_mean: float
    summary_age_max: float
    #: fraction of held summaries older than the staleness threshold
    stale_fraction: float
    #: fraction of expected overlay replicas actually held (1.0 = full)
    coverage: float
    #: shadow-oracle answer quality (1.0 when no quality plane is armed
    #: or nothing has been audited yet)
    precision: float = 1.0
    recall: float = 1.0

    def to_dict(self) -> Dict[str, float]:
        return {
            "t": self.t,
            "queue_depth_total": float(self.queue_depth_total),
            "queue_depth_max": float(self.queue_depth_max),
            "sent": float(self.sent),
            "delivered": float(self.delivered),
            "lost": float(self.lost),
            "dropped": float(self.dropped),
            "shed": float(self.shed),
            "pending": float(self.pending),
            "summary_entries": float(self.summary_entries),
            "summary_age_mean": self.summary_age_mean,
            "summary_age_max": self.summary_age_max,
            "stale_fraction": self.stale_fraction,
            "coverage": self.coverage,
            "precision": self.precision,
            "recall": self.recall,
        }


@dataclass(frozen=True)
class HealthSLO:
    """Thresholds a :class:`HealthReport` judges the sampled series by."""

    #: highest acceptable fraction of stale summary entries (any sample)
    max_stale_fraction: float = 0.10
    #: lowest acceptable replication-coverage fraction (any sample)
    min_coverage: float = 0.99
    #: highest acceptable shed/sent ratio over the whole window
    max_shed_fraction: float = 0.05
    #: highest acceptable lost/sent ratio over the whole window
    max_loss_fraction: float = 0.10
    #: deepest acceptable single service queue (None = don't judge)
    max_queue_depth: Optional[int] = None
    #: lowest acceptable shadow-oracle precision/recall (None = don't
    #: judge; only meaningful when the system has a quality plane)
    min_precision: Optional[float] = None
    min_recall: Optional[float] = None


@dataclass(frozen=True)
class HealthCheck:
    """One SLO dimension's verdict."""

    name: str
    ok: bool
    value: float
    threshold: float
    detail: str = ""

    def format(self) -> str:
        mark = "ok " if self.ok else "FAIL"
        out = (
            f"[{mark}] {self.name:<14} value={self.value:.4g} "
            f"threshold={self.threshold:.4g}"
        )
        return out + (f"  ({self.detail})" if self.detail else "")


@dataclass
class HealthReport:
    """SLO evaluation of a probe's sampled window."""

    samples: int
    window_start: float
    window_end: float
    checks: List[HealthCheck] = field(default_factory=list)
    last: Optional[HealthSample] = None

    @property
    def healthy(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_dict(self) -> Dict[str, object]:
        return {
            "healthy": self.healthy,
            "samples": self.samples,
            "window": [self.window_start, self.window_end],
            "checks": [
                {
                    "name": c.name,
                    "ok": c.ok,
                    "value": c.value,
                    "threshold": c.threshold,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
            "last_sample": self.last.to_dict() if self.last else None,
        }

    def format(self) -> str:
        verdict = "HEALTHY" if self.healthy else "UNHEALTHY"
        lines = [
            f"federation {verdict}: {self.samples} samples over "
            f"[{self.window_start:.2f}s, {self.window_end:.2f}s]"
        ]
        lines.extend(c.format() for c in self.checks)
        if self.last is not None:
            s = self.last
            lines.append(
                f"last sample @ {s.t:.2f}s: queue depth {s.queue_depth_total}"
                f" (max {s.queue_depth_max}), pending {s.pending}, "
                f"sent {s.sent} / delivered {s.delivered} / lost {s.lost}"
                f" / shed {s.shed}, summaries {s.summary_entries} "
                f"(stale {s.stale_fraction:.1%}), coverage {s.coverage:.1%}"
            )
        return "\n".join(lines)


def judge_sample(
    sample: HealthSample, slo: HealthSLO
) -> List[HealthCheck]:
    """Judge one sample against *slo*.

    Judged on each instantaneous snapshot, a check can go ok → fail → ok
    again as the run unfolds, which is what breach-transition detection
    needs. :meth:`HealthProbe.report` instead judges one sample folded
    from the worst values of the whole window, so its verdict never
    "recovers".
    """
    sent = max(1, sample.sent)
    checks = [
        HealthCheck(
            name="staleness",
            ok=sample.stale_fraction <= slo.max_stale_fraction,
            value=sample.stale_fraction,
            threshold=slo.max_stale_fraction,
            detail=f"stale_fraction at t={sample.t:.2f}s",
        ),
        HealthCheck(
            name="coverage",
            ok=sample.coverage >= slo.min_coverage,
            value=sample.coverage,
            threshold=slo.min_coverage,
            detail=f"replication coverage at t={sample.t:.2f}s",
        ),
        HealthCheck(
            name="shedding",
            ok=sample.shed / sent <= slo.max_shed_fraction,
            value=sample.shed / sent,
            threshold=slo.max_shed_fraction,
            detail=f"{sample.shed} shed of {sample.sent} sent",
        ),
        HealthCheck(
            name="loss",
            ok=sample.lost / sent <= slo.max_loss_fraction,
            value=sample.lost / sent,
            threshold=slo.max_loss_fraction,
            detail=f"{sample.lost} lost of {sample.sent} sent",
        ),
    ]
    if slo.max_queue_depth is not None:
        checks.append(
            HealthCheck(
                name="queue_depth",
                ok=sample.queue_depth_max <= slo.max_queue_depth,
                value=float(sample.queue_depth_max),
                threshold=float(slo.max_queue_depth),
                detail=f"deepest single service queue at t={sample.t:.2f}s",
            )
        )
    if slo.min_precision is not None:
        checks.append(
            HealthCheck(
                name="precision",
                ok=sample.precision >= slo.min_precision,
                value=sample.precision,
                threshold=slo.min_precision,
                detail=f"oracle precision at t={sample.t:.2f}s",
            )
        )
    if slo.min_recall is not None:
        checks.append(
            HealthCheck(
                name="recall",
                ok=sample.recall >= slo.min_recall,
                value=sample.recall,
                threshold=slo.min_recall,
                detail=f"oracle recall at t={sample.t:.2f}s",
            )
        )
    return checks


class HealthProbe:
    """Periodic health sampler bound to one :class:`RoadsSystem`.

    Parameters
    ----------
    system:
        The federation to watch (its simulator drives the cadence).
    interval:
        Sim-seconds between samples.
    stale_after:
        Staleness threshold forwarded to
        :meth:`UpdatePlane.staleness_snapshot` (None = the plane's
        default of 1.5 update intervals).
    slo:
        When set, every sample is additionally judged instantaneously
        (:func:`judge_sample`); a check transitioning ok → fail appends
        to :attr:`breaches` and fires ``on_breach`` exactly once per
        transition (it re-arms only after the check recovers).
    on_breach:
        ``fn(check, sample)`` breach-transition hook — the flight
        recorder's :meth:`~repro.telemetry.recorder.FlightRecorder.bind`
        installs its postmortem trigger here.
    """

    def __init__(
        self,
        system,
        *,
        interval: float = 1.0,
        stale_after: Optional[float] = None,
        slo: Optional[HealthSLO] = None,
        on_breach: Optional[
            Callable[[HealthCheck, HealthSample], None]
        ] = None,
    ):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.system = system
        self.interval = interval
        self.stale_after = stale_after
        self.slo = slo
        self.on_breach = on_breach
        self.samples: List[HealthSample] = []
        #: checks captured at each ok → fail transition, in order
        self.breaches: List[HealthCheck] = []
        self._check_ok: Dict[str, bool] = {}
        self._observing = False
        self._task = None

    # -- cadence ------------------------------------------------------------------
    def start(self) -> "HealthProbe":
        """Begin sampling every ``interval`` sim-seconds (jitter-free)."""
        if self._task is None:
            self._task = self.system.sim.schedule_periodic(
                self.interval, self.sample, first_delay=self.interval,
                label="telemetry.probe",
            )
        return self

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()
            self._task = None

    # -- one snapshot --------------------------------------------------------------
    def _coverage(self) -> float:
        """Held / expected overlay replicas, over all alive servers."""
        from ..overlay.replication import replication_sources

        expected = 0
        held = 0
        for server in self.system.hierarchy:
            if not server.alive:
                continue
            sources = [
                s for s in replication_sources(server) if s.alive
            ]
            expected += len(sources)
            held += sum(
                1
                for s in sources
                if s.server_id in server.replicated_summaries
            )
        if expected == 0:
            return 1.0
        return held / expected

    def sample(self) -> HealthSample:
        """Take (and record) one snapshot at the current sim time."""
        system = self.system
        net = system.network
        counters = net.counters()
        depth_total = 0
        depth_max = 0
        for server in system.hierarchy:
            depth = int(net.service_stats(server.server_id)["depth"])
            depth_total += depth
            if depth > depth_max:
                depth_max = depth
        if system.update_plane is not None:
            stale = system.update_plane.staleness_snapshot(
                stale_after=self.stale_after
            )
        else:
            stale = {}
        quality = getattr(system, "quality", None)
        sample = HealthSample(
            t=system.sim.now,
            queue_depth_total=depth_total,
            queue_depth_max=depth_max,
            sent=counters["sent"],
            delivered=counters["delivered"],
            lost=counters["lost"],
            dropped=counters["dropped"],
            shed=counters["shed"],
            pending=system.sim.pending,
            summary_entries=int(stale.get("entries", 0.0)),
            summary_age_mean=stale.get("age_mean", 0.0),
            summary_age_max=stale.get("age_max", 0.0),
            stale_fraction=stale.get("stale_fraction", 0.0),
            coverage=self._coverage(),
            precision=(
                quality.precision if quality is not None else 1.0
            ),
            recall=quality.recall if quality is not None else 1.0,
        )
        self.samples.append(sample)
        tel = system.telemetry
        if tel is not None:
            tel.event(
                PROBE_EVENT,
                queue_depth=depth_total,
                queue_depth_max=depth_max,
                pending=sample.pending,
                shed=sample.shed,
                lost=sample.lost,
                stale_fraction=sample.stale_fraction,
                coverage=sample.coverage,
            )
        if self.slo is not None:
            self.observe(sample)
        return sample

    def observe(self, sample: HealthSample) -> List[HealthCheck]:
        """Judge *sample* against the probe's SLO; fire breach hooks.

        Each named check fires ``on_breach`` only on its ok → fail
        transition — a check that keeps failing stays silent until it
        recovers and fails again, so one incident yields one postmortem.
        Returns the checks that transitioned to failing this call.
        """
        if self.slo is None or self._observing:
            # A breach handler may take a fresh sample (e.g. to attach a
            # report); that nested sample must not re-enter SLO judging
            # and clobber the transition state mid-incident.
            return []
        self._observing = True
        try:
            fired: List[HealthCheck] = []
            for check in judge_sample(sample, self.slo):
                was_ok = self._check_ok.get(check.name, True)
                self._check_ok[check.name] = check.ok
                if was_ok and not check.ok:
                    fired.append(check)
                    self.breaches.append(check)
                    if self.on_breach is not None:
                        self.on_breach(check, sample)
            return fired
        finally:
            self._observing = False

    # -- SLO evaluation --------------------------------------------------------------
    def report(self, slo: HealthSLO = HealthSLO()) -> HealthReport:
        """Judge the sampled window against *slo*.

        The window folds into one sample: the last sample's cumulative
        counters with the worst staleness, coverage, queue depth,
        precision and recall seen in any sample, judged by
        :func:`judge_sample` (whose details name the last sample's time).
        """
        if not self.samples:
            self.sample()
        samples = self.samples
        last = samples[-1]
        worst = replace(
            last,
            stale_fraction=max(s.stale_fraction for s in samples),
            coverage=min(s.coverage for s in samples),
            queue_depth_max=max(s.queue_depth_max for s in samples),
            precision=min(s.precision for s in samples),
            recall=min(s.recall for s in samples),
        )
        checks = judge_sample(worst, slo)
        return HealthReport(
            samples=len(samples),
            window_start=samples[0].t,
            window_end=last.t,
            checks=checks,
            last=last,
        )
