"""Bottom-up summary aggregation: the per-server protocol pieces.

Every epoch (t_s), each guest owner exports a fresh summary to its
attachment point, and every non-root server reports its branch summary
— the merge of its local data and its children's latest reports — to
its parent. Once every level has reported, the root holds the global
view. Summaries are soft state: reports carry the epoch's timestamp and
expire after their TTL.

This module holds what one server sends and what a receiver does with
it: :class:`SummaryExporter` builds a server's report (full summary or
delta keep-alive), :func:`build_owner_export` a guest owner's export,
and :class:`SummaryUpdate` is the wire payload installed at delivery.
:class:`~repro.roads.update_plane.UpdatePlane` schedules them over the
simulated network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..summaries.config import SummaryConfig
from ..summaries.summary import ResourceSummary
from .node import Server

#: bytes of branch metadata (depth, descendant count) piggybacked on each
#: aggregation message for the balanced join rule
BRANCH_STATS_BYTES = 8
#: fixed message header bytes
HEADER_BYTES = 16


@dataclass
class AggregationReport:
    """Byte accounting of one epoch's guest exports and parent reports."""

    export_bytes: int
    aggregation_bytes: int
    messages: int
    #: delta propagation: how many reports shipped the full summary vs a
    #: keep-alive header because the branch summary was unchanged
    full_reports: int = 0
    keepalive_reports: int = 0

    @property
    def total_bytes(self) -> int:
        return self.export_bytes + self.aggregation_bytes


@dataclass
class SummaryUpdate:
    """Wire payload of one update-plane message.

    ``summary is None`` marks a keep-alive: the receiver re-stamps its
    held soft state only when *fingerprint* matches the held content
    (:meth:`~repro.hierarchy.node.Server.refresh_summary`). ``table``
    selects the receiver-side soft-state table: ``"child"`` for
    bottom-up reports, ``"replica"`` / ``"replica_local"`` for overlay
    pushes, ``"owner"`` for a guest owner's summary export.

    One payload object is shared across every holder of the same source
    summary in an epoch — installation never mutates it in place.
    """

    table: str
    src: int
    summary: Optional[ResourceSummary] = None
    fingerprint: Optional[bytes] = None
    owner_id: Optional[str] = None

    def install(self, server: Server, now: float) -> str:
        """Apply this update at the receiving *server*; returns outcome.

        The outcome is ``"installed"``, ``"refreshed"`` or ``"ignored"``
        (keep-alive against absent or content-mismatched state — the
        receiver's copy is left to age out, Section III-B soft state).
        """
        if self.table == "owner":
            for owner in server.owners:
                if owner.owner_id == self.owner_id:
                    owner.summary = self.summary
                    return "installed"
            return "ignored"
        if self.summary is not None:
            ok = server.install_summary(self.table, self.src, self.summary)
            return "installed" if ok else "ignored"
        if self.fingerprint is None:
            return "ignored"  # bare stats report from an empty branch
        ok = server.refresh_summary(self.table, self.src, self.fingerprint, now)
        return "refreshed" if ok else "ignored"


def install_batch(server: Server, updates, now: float) -> list:
    """Apply a same-destination batch of updates; returns their outcomes.

    One call installs a whole ``(destination, tick)`` delivery group —
    each update addresses a distinct ``(table, src)`` slot, so outcomes
    are order-independent within the batch and identical to installing
    the messages one event at a time. The stacked-array work happens
    when the receiver next folds the installed tables into a branch
    summary via :meth:`ResourceSummary.merge_many`; this entry point
    exists so that fold sees every summary of the tick at once instead
    of re-running per message.
    """
    return [u.install(server, now) for u in updates]


class SummaryExporter:
    """Per-server actor: exports the branch summary to the parent.

    Delta state is sender-side only: the exporter remembers the
    fingerprint it last shipped (``server.last_reported_fingerprint``,
    also piggybacked on maintenance heartbeats), the parent it shipped
    to, and when it last sent a full summary. A full send is forced when
    the parent changed (rejoin — the new parent has no state for us) or
    when ``refresh_after`` elapsed since the last full (soft-state
    anti-entropy: bounds staleness when a full send was lost and the
    receiver is silently discarding our keep-alives).
    """

    __slots__ = ("server", "config", "delta", "refresh_after",
                 "_last_parent", "_last_full_at")

    def __init__(
        self,
        server: Server,
        config: SummaryConfig,
        *,
        delta: bool = False,
        refresh_after: Optional[float] = None,
    ):
        self.server = server
        self.config = config
        self.delta = delta
        self.refresh_after = (
            refresh_after if refresh_after is not None else config.ttl
        )
        self._last_parent: Optional[int] = None
        self._last_full_at = float("-inf")

    def forget_parent(self) -> None:
        """Force a full send on the next export (parent changed)."""
        self._last_parent = None

    def build_update(self, now: float) -> Optional[tuple]:
        """One epoch's report to the parent: ``(update, size_bytes)``.

        Returns None when there is no parent to report to (root) or the
        server is dead. Mutates the exporter's delta state — the report
        counts as sent whether or not it survives the network.
        """
        server = self.server
        parent = server.parent
        if parent is None or not server.alive:
            return None
        summary = server.branch_summary(self.config, now)
        size = HEADER_BYTES + BRANCH_STATS_BYTES
        if summary is None:
            return SummaryUpdate("child", server.server_id), size
        summary = summary.refreshed(now)
        fp = summary.fingerprint()
        keepalive = (
            self.delta
            and parent.server_id == self._last_parent
            and fp == server.last_reported_fingerprint
            and (now - self._last_full_at) < self.refresh_after
        )
        server.last_reported_fingerprint = fp
        self._last_parent = parent.server_id
        if keepalive:
            return SummaryUpdate("child", server.server_id, None, fp), size
        self._last_full_at = now
        size += summary.encoded_size()
        return SummaryUpdate("child", server.server_id, summary, fp), size


def build_owner_export(
    owner, config: SummaryConfig, now: float
) -> tuple:
    """A guest owner's fresh summary export: ``(update, size_bytes)``."""
    summary = ResourceSummary.from_store(owner.origin, config, created_at=now)
    size = summary.encoded_size() + HEADER_BYTES
    update = SummaryUpdate(
        "owner", owner.node_id, summary, owner_id=owner.owner_id
    )
    return update, size
