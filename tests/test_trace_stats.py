"""Unit coverage for the structured trace (:mod:`repro.simnet.trace`)
and the ``REPRO_SIM_STATS`` row-column flag (:mod:`repro.simnet.stats`)
— dormant plumbing the observability layer now builds on."""

from __future__ import annotations

import pytest

from repro.simnet.stats import STATS_ENV, stats_enabled
from repro.simnet.trace import NullTrace, Trace, TraceRecord


class TestTrace:
    def _trace(self) -> Trace:
        trace = Trace()
        trace.emit(0.0, "flow.inject", fid=1, src=0, dst=1)
        trace.emit(1.0, "flow.complete", fid=1, src=0, dst=1)
        trace.emit(2.0, "flow.inject", fid=2, src=1, dst=0)
        return trace

    def test_emit_appends_in_order(self):
        trace = self._trace()
        assert len(trace) == 3
        assert [r.time for r in trace] == [0.0, 1.0, 2.0]

    def test_by_category_preserves_emission_order(self):
        trace = self._trace()
        injects = trace.by_category("flow.inject")
        assert [r["fid"] for r in injects] == [1, 2]
        assert trace.by_category("no.such") == []

    def test_categories_are_distinct(self):
        assert self._trace().categories() == {
            "flow.inject", "flow.complete",
        }
        assert Trace().categories() == set()

    def test_record_payload_access(self):
        record = TraceRecord(0.5, "x", {"rank": 3})
        assert record["rank"] == 3
        with pytest.raises(KeyError):
            record["missing"]

    def test_disabled_trace_drops_records(self):
        trace = Trace(enabled=False)
        trace.emit(0.0, "flow.inject", fid=1)
        assert len(trace) == 0

    def test_null_trace_drops_everything(self):
        null = NullTrace()
        null.emit(0.0, "flow.inject", fid=1)
        null.emit(1.0, "flow.complete", fid=1)
        assert len(null) == 0
        assert not null.enabled
        assert isinstance(null, Trace)  # drop-in for trace consumers


class TestSimStats:
    @pytest.mark.parametrize(
        "value", ["1", "true", "YES", " on ", "True"]
    )
    def test_truthy_env_values_enable_stats(self, monkeypatch, value):
        monkeypatch.setenv(STATS_ENV, value)
        assert stats_enabled()

    @pytest.mark.parametrize("value", ["", "0", "off", "no", "false"])
    def test_everything_else_stays_off(self, monkeypatch, value):
        monkeypatch.setenv(STATS_ENV, value)
        assert not stats_enabled()

    def test_unset_means_disabled(self, monkeypatch):
        monkeypatch.delenv(STATS_ENV, raising=False)
        assert not stats_enabled()
