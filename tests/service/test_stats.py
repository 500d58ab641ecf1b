"""BatchReport aggregates, the percentile helper and the status
partition."""

import pytest

from repro.service import (
    ALL_STATUSES,
    CACHEABLE_STATUSES,
    FAILED_STATUSES,
    STATUS_CRASHED,
    STATUS_ERROR,
    STATUS_OK,
    BatchReport,
    RevealOutcome,
    percentile,
)


def _outcome(status=STATUS_OK, latency=0.1, hit=False, app_id="a"):
    return RevealOutcome(app_id=app_id, status=status, latency_s=latency,
                         cache_hit=hit)


class TestStatuses:
    def test_cacheable_and_failed_statuses_partition_all(self):
        assert not set(CACHEABLE_STATUSES) & set(FAILED_STATUSES)
        assert sorted(CACHEABLE_STATUSES + FAILED_STATUSES) == \
            sorted(ALL_STATUSES)


class TestPercentile:
    def test_empty(self):
        assert percentile([], 0.5) == 0.0

    def test_single(self):
        assert percentile([7.0], 0.95) == 7.0

    def test_median_and_tail(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile(values, 0.5) == 3.0
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 5.0
        assert percentile(values, 0.95) == pytest.approx(4.8)

    def test_unsorted_input(self):
        assert percentile([5.0, 1.0, 3.0], 0.5) == 3.0

    def test_rejects_bad_quantile(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


class TestBatchReport:
    def test_counts_and_rates(self):
        report = BatchReport(
            outcomes=[
                _outcome(STATUS_OK, 0.1),
                _outcome(STATUS_OK, 0.3, hit=True),
                _outcome(STATUS_CRASHED, 0.2),
                _outcome(STATUS_ERROR, 0.4),
            ],
            wall_time_s=2.0,
            workers=2,
        )
        assert report.total == 4
        assert report.ok_count == 2
        assert report.failed_count == 2
        assert report.status_counts()[STATUS_CRASHED] == 1
        assert report.cache_hits == 1
        assert report.cache_hit_rate == 0.25
        assert report.apps_per_sec == 2.0
        # Cache hits don't pollute the latency distribution.
        assert sorted(report.latencies) == [0.1, 0.2, 0.4]

    def test_empty_report(self):
        report = BatchReport()
        assert report.total == 0
        assert report.cache_hit_rate == 0.0
        assert report.apps_per_sec == 0.0
        assert report.p50_latency_s == 0.0
        assert "(empty batch)" in report.render()

    def test_summary_is_json_safe(self):
        import json

        report = BatchReport(outcomes=[_outcome()], wall_time_s=1.0)
        blob = json.dumps(report.summary())
        assert "cache_hit_rate" in blob
        assert "p95_latency_s" in blob

    def test_render_mentions_throughput_and_cache(self):
        report = BatchReport(outcomes=[_outcome(hit=True)], wall_time_s=0.5,
                             workers=3)
        text = report.render()
        assert "apps/sec" in text
        assert "1/1 hits" in text
        assert "3 worker(s)" in text


class TestQueueWaits:
    def _waited(self, wait, **kwargs):
        outcome = _outcome(**kwargs)
        outcome.queue_wait_s = wait
        return outcome

    def test_percentiles_over_waits(self):
        report = BatchReport(
            outcomes=[self._waited(w) for w in (0.1, 0.2, 0.3, 0.4)],
            wall_time_s=1.0,
        )
        assert report.p50_queue_wait_s == pytest.approx(0.25)
        assert report.p95_queue_wait_s == pytest.approx(0.385)
        assert report.summary()["p50_queue_wait_s"] == pytest.approx(0.25)
        assert "queue wait:" in report.render()

    def test_no_queue_no_noise(self):
        # An empty batch queued nothing: zeros and no render line.
        report = BatchReport()
        assert report.queue_waits == []
        assert report.p50_queue_wait_s == 0.0
        assert "queue wait:" not in report.render()
        assert report.summary()["p95_queue_wait_s"] == 0.0

    def test_zero_waits_are_reported(self):
        # Every outcome of a batch was queued, so a zero wait is a
        # measurement, not a missing one.
        report = BatchReport(outcomes=[_outcome(), _outcome()],
                             wall_time_s=1.0)
        assert report.queue_waits == [0.0, 0.0]
        assert report.p50_queue_wait_s == 0.0
        assert "queue wait: p50=0.0ms" in report.render()

    def test_outcome_summary_carries_queue_wait(self):
        outcome = self._waited(0.125)
        assert outcome.to_summary()["queue_wait_s"] == 0.125
