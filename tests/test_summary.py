"""Unit tests for repro.summaries.summary and config."""

import numpy as np
import pytest

from repro.query import EqualsPredicate, Query, RangePredicate
from repro.records import RecordStore
from repro.summaries import (
    BloomFilterSummary,
    HistogramSummary,
    MultiResolutionHistogram,
    ResourceSummary,
    SummaryConfig,
    SummaryMergeError,
    ValueSetSummary,
)


class TestSummaryConfig:
    def test_defaults(self):
        cfg = SummaryConfig()
        assert cfg.histogram_buckets == 1000
        assert cfg.histogram_encoding == "dense"
        assert cfg.categorical_summary == "set"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"histogram_buckets": 0},
            {"histogram_encoding": "zip"},
            {"categorical_summary": "hash"},
            {"bloom_bits": 0},
            {"bloom_hashes": 0},
            {"multiresolution_levels": 0},
            {"ttl": 0},
            {"multiresolution_levels": 4, "histogram_buckets": 100},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SummaryConfig(**kwargs)


class TestFromStore:
    def test_numeric_become_histograms(self, mixed_store):
        cfg = SummaryConfig(histogram_buckets=50)
        s = ResourceSummary.from_store(mixed_store, cfg)
        assert isinstance(s.attributes["rate"], HistogramSummary)
        assert isinstance(s.attributes["type"], ValueSetSummary)
        assert s.attributes["rate"].total == len(mixed_store)

    def test_bloom_option(self, mixed_store):
        cfg = SummaryConfig(categorical_summary="bloom", bloom_bits=512)
        s = ResourceSummary.from_store(mixed_store, cfg)
        assert isinstance(s.attributes["type"], BloomFilterSummary)

    def test_multires_option(self, unit_store):
        cfg = SummaryConfig(histogram_buckets=64, multiresolution_levels=3)
        s = ResourceSummary.from_store(unit_store, cfg)
        assert isinstance(s.attributes["a"], MultiResolutionHistogram)

    def test_empty_summary(self, mixed_schema):
        s = ResourceSummary.empty(mixed_schema, SummaryConfig())
        assert s.is_empty


class TestMayMatch:
    def test_conjunctive(self, mixed_store):
        cfg = SummaryConfig(histogram_buckets=100)
        s = ResourceSummary.from_store(mixed_store, cfg)
        present_type = mixed_store.categorical_column("type")[0]
        rate0 = float(mixed_store.numeric_column("rate")[0])
        q = Query.of(
            RangePredicate("rate", rate0 - 1, rate0 + 1),
            EqualsPredicate("type", present_type),
        )
        # Note: conjunction across attributes may be a false positive but
        # each dimension matched by a real record cannot be a false
        # negative.
        assert s.attributes["rate"].may_match(q.predicates[0])
        assert s.attributes["type"].may_match(q.predicates[1])

    def test_single_dim_prunes(self, mixed_store):
        cfg = SummaryConfig(histogram_buckets=100)
        s = ResourceSummary.from_store(mixed_store, cfg)
        q = Query.of(EqualsPredicate("type", "submarine"))
        assert not s.may_match(q)

    def test_no_false_negatives_vs_store(self, unit_store):
        cfg = SummaryConfig(histogram_buckets=37)
        s = ResourceSummary.from_store(unit_store, cfg)
        rng = np.random.default_rng(1)
        for _ in range(100):
            lo = rng.random(2) * 0.7
            q = Query.of(
                RangePredicate("a", lo[0], lo[0] + 0.2),
                RangePredicate("b", lo[1], lo[1] + 0.2),
            )
            if q.match_count(unit_store) > 0:
                assert s.may_match(q)

    def test_unknown_attribute_raises(self, unit_store):
        s = ResourceSummary.from_store(unit_store, SummaryConfig())
        with pytest.raises(KeyError):
            s.may_match(Query.of(RangePredicate("zz", 0, 1)))


class TestMerge:
    def test_merge_equals_summary_of_union(self, unit_schema):
        rng = np.random.default_rng(2)
        a = RecordStore.from_arrays(unit_schema, rng.random((30, 4)), [])
        b = RecordStore.from_arrays(unit_schema, rng.random((40, 4)), [])
        cfg = SummaryConfig(histogram_buckets=64)
        merged = ResourceSummary.from_store(a, cfg).merge(
            ResourceSummary.from_store(b, cfg)
        )
        union = ResourceSummary.from_store(a.merged_with(b), cfg)
        for name in ("a", "b", "c", "d"):
            assert merged.attributes[name] == union.attributes[name]

    def test_schema_mismatch(self, unit_store, mixed_store):
        cfg = SummaryConfig()
        with pytest.raises(SummaryMergeError):
            ResourceSummary.from_store(unit_store, cfg).merge(
                ResourceSummary.from_store(mixed_store, cfg)
            )


class TestSoftState:
    def test_expiry(self, unit_store):
        cfg = SummaryConfig(ttl=10.0)
        s = ResourceSummary.from_store(unit_store, cfg, created_at=100.0)
        assert not s.is_expired(105.0)
        assert s.is_expired(111.0)

    def test_refreshed(self, unit_store):
        cfg = SummaryConfig(ttl=10.0)
        s = ResourceSummary.from_store(unit_store, cfg, created_at=0.0)
        r = s.refreshed(50.0)
        assert r.created_at == 50.0
        assert s.created_at == 0.0

    def test_refreshed_shares_evaluated_attributes(self, unit_store):
        cfg = SummaryConfig(histogram_buckets=64)
        s = ResourceSummary.from_store(unit_store, cfg)
        queries = [
            Query.of(RangePredicate("a", lo, lo + w), RangePredicate("b", 0.1, 0.9))
            for lo in (0.0, 0.2, 0.5, 0.95)
            for w in (0.0, 0.01, 0.3)
        ]
        before = [s.may_match(q) for q in queries]
        fresh = ResourceSummary.from_store(unit_store, cfg)
        assert [fresh.may_match(q) for q in queries] == before
        r = s.refreshed(50.0)
        assert [r.may_match(q) for q in queries] == before
        assert [s.may_match(q) for q in queries] == before
        for q in queries:
            if q.match_count(unit_store):
                assert r.may_match(q)


class TestEstimation:
    def test_encoded_size_sums_attributes(self, unit_store):
        cfg = SummaryConfig(histogram_buckets=64)
        s = ResourceSummary.from_store(unit_store, cfg)
        assert s.encoded_size() == sum(
            a.encoded_size() for a in s.attributes.values()
        )
