"""Bottom-up aggregation through the update plane's epochs."""

import numpy as np
import pytest

from repro.hierarchy import AttachedOwner, Server, build_hierarchy
from repro.records import RecordStore, Schema, numeric
from repro.sim import UPDATE, MetricsCollector
from repro.summaries import SummaryConfig


@pytest.fixture
def schema():
    return Schema([numeric("a"), numeric("b")])


def store(schema, n, seed):
    rng = np.random.default_rng(seed)
    return RecordStore.from_arrays(schema, rng.random((n, 2)), [])


@pytest.fixture
def hierarchy(schema):
    """9 servers, degree 2, each owning 10 records."""
    h = build_hierarchy(Server(i, max_children=2) for i in range(9))
    for i in range(9):
        h.get(i).attach_owner(
            AttachedOwner(f"owner-{i}", store(schema, 10, i), controls_server=True)
        )
    return h


CFG = SummaryConfig(histogram_buckets=32)


class TestAggregateRound:
    def test_root_sees_all_records(self, hierarchy, make_plane):
        plane = make_plane(hierarchy, CFG)
        plane.run_epoch()
        root_summary = hierarchy.root.branch_summary(CFG, plane.sim.now)
        assert root_summary.attributes["a"].total == 90

    def test_every_parent_has_child_summaries(self, hierarchy, make_plane):
        make_plane(hierarchy, CFG).run_epoch()
        for server in hierarchy:
            for cid in server.child_ids():
                assert cid in server.child_summaries

    def test_intermediate_counts(self, hierarchy, make_plane):
        plane = make_plane(hierarchy, CFG)
        plane.run_epoch()
        for server in hierarchy:
            branch = server.branch_summary(CFG, plane.sim.now)
            assert branch.attributes["a"].total == 10 * server.subtree_size()

    def test_message_count_is_one_per_edge(self, hierarchy, make_plane):
        report = make_plane(hierarchy, CFG).run_epoch()
        assert report.aggregation.messages == len(hierarchy) - 1

    def test_bytes_accounted_in_metrics(self, hierarchy, make_plane):
        metrics = MetricsCollector()
        report = make_plane(hierarchy, CFG, metrics=metrics).run_epoch()
        assert metrics.bytes(UPDATE) == report.total_bytes

    def test_controlling_owner_exports_free(self, hierarchy, make_plane):
        # All owners control their servers: no summary export traffic.
        report = make_plane(hierarchy, CFG).run_epoch()
        assert report.aggregation.export_bytes == 0

    def test_third_party_owner_pays_export(self, hierarchy, schema, make_plane):
        hierarchy.get(3).attach_owner(
            AttachedOwner("guest", store(schema, 20, 99), controls_server=False)
        )
        report = make_plane(hierarchy, CFG).run_epoch()
        assert report.aggregation.export_bytes > 0
        guest = [o for o in hierarchy.get(3).owners if o.owner_id == "guest"][0]
        assert guest.summary is not None
        assert guest.summary.attributes["a"].total == 20

    def test_guest_records_visible_at_root(self, hierarchy, schema, make_plane):
        hierarchy.get(3).attach_owner(
            AttachedOwner("guest", store(schema, 20, 99), controls_server=False)
        )
        plane = make_plane(hierarchy, CFG)
        plane.run_epoch()
        root_summary = hierarchy.root.branch_summary(CFG, plane.sim.now)
        assert root_summary.attributes["a"].total == 110

    def test_timestamps_applied(self, hierarchy, make_plane):
        plane = make_plane(hierarchy, CFG)
        plane.sim.run(until=123.0)
        plane.run_epoch()
        # The root's children all report in the same epoch slot.
        stamps = {s.created_at for s in hierarchy.root.child_summaries.values()}
        assert len(stamps) == 1
        assert 123.0 < stamps.pop() < plane.sim.now


class TestFreeRunning:
    def test_soft_state_freshness(self, hierarchy, make_plane):
        cfg = SummaryConfig(histogram_buckets=32, ttl=15.0)
        plane = make_plane(hierarchy, cfg, interval=10.0)
        plane.start()
        plane.sim.run(until=55.0)
        now = plane.sim.now
        for server in hierarchy:
            assert set(server.child_summaries) == set(server.child_ids())
            for s in server.child_summaries.values():
                assert not s.is_expired(now)
