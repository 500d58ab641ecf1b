"""Cluster labeling inside the batch pipeline: outcomes, events, report.

The determinism acceptance bar rides here too: family assignments over
the same corpus must be byte-identical regardless of how many workers
revealed it or in which order the apps arrived.
"""

import pytest

from repro.benchsuite.shared_corpus import build_shared_corpus
from repro.cluster.store import ClusterStore
from repro.core import RevealConfig
from repro.service import (
    EVENT_CLUSTER,
    BatchRevealService,
    RevealJob,
    RevealServer,
)

_CORPUS_KW = dict(methods_per_class=2)


def _jobs(apps):
    return [RevealJob(app.package, app.apk) for app in apps]


class TestClusterStatsSurfaces:
    def test_no_cluster_dir_no_stats(self):
        apps = build_shared_corpus(1, **_CORPUS_KW)
        report = BatchRevealService(workers=1).reveal_batch(_jobs(apps))
        assert report.cluster_summary() == {}
        assert "cluster:" not in report.render()

    def test_outcomes_carry_cluster_stats(self, tmp_path):
        apps = build_shared_corpus(3, **_CORPUS_KW)
        service = BatchRevealService(
            config=RevealConfig(cluster_dir=str(tmp_path / "fam")), workers=1)
        report = service.reveal_batch(_jobs(apps))
        assert report.ok_count == 3
        for outcome in report.outcomes:
            assert outcome.cluster_stats, outcome.app_id
            assert outcome.cluster_stats["methods_total"] > 0
            assert outcome.to_summary()["cluster_stats"] == \
                outcome.cluster_stats
        # Apps 2..3 share libraries with app 1, which the store absorbed
        # first — their methods are *known* by the time they arrive.
        later = report.outcomes[1:]
        assert any(o.cluster_stats["methods_known"] > 0 for o in later)
        summary = report.cluster_summary()
        assert summary["apps_labeled"] == 3
        assert summary["labels_assigned"] > 0
        assert "cluster:" in report.render()

    def test_server_publishes_cluster_events(self, tmp_path):
        apps = build_shared_corpus(2, **_CORPUS_KW)
        service = BatchRevealService(
            config=RevealConfig(cluster_dir=str(tmp_path / "fam")), workers=1)
        with RevealServer(service=service) as server:
            handles = server.submit_many(_jobs(apps))
            outcomes = server.await_many(handles)

        for handle, outcome in zip(handles, outcomes):
            events = [e for e in server.bus.events_for(handle.job_id)
                      if e.kind == EVENT_CLUSTER]
            assert len(events) == 1
            assert events[0].payload == outcome.cluster_stats
            assert {"family", "methods_total",
                    "labels_assigned"} <= events[0].payload.keys()

    def test_store_persists_across_service_instances(self, tmp_path):
        cluster_dir = str(tmp_path / "fam")
        first = build_shared_corpus(2, **_CORPUS_KW)
        BatchRevealService(
            config=RevealConfig(cluster_dir=cluster_dir), workers=1) \
            .reveal_batch(_jobs(first))

        store = ClusterStore(cluster_dir, create=False)
        stats = store.stats()
        store.close()
        assert stats["apps"] == 2
        assert stats["members"] > 0


class TestWorkerCountDeterminism:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_families_byte_identical_across_worker_counts(
            self, tmp_path, workers):
        # Same corpus, different parallelism → the family snapshot must
        # not move a byte.  The single-worker run is the anchor every
        # other worker count is compared to.
        apps = build_shared_corpus(4, **_CORPUS_KW)
        anchor_dir = str(tmp_path / "anchor")
        BatchRevealService(config=RevealConfig(cluster_dir=anchor_dir),
                           workers=1).reveal_batch(_jobs(apps))
        anchor_store = ClusterStore(anchor_dir, create=False)
        anchor = anchor_store.build_families().to_json()
        anchor_store.close()

        probe_dir = str(tmp_path / f"workers-{workers}")
        report = BatchRevealService(
            config=RevealConfig(cluster_dir=probe_dir),
            workers=workers).reveal_batch(_jobs(list(reversed(apps))))
        # Every reveal really labeled: a store that failed to open
        # would pass silently as ``ok`` with ``degraded=['cluster']``.
        assert [(o.status, o.degraded) for o in report.outcomes] == \
            [("ok", [])] * len(apps)
        probe_store = ClusterStore(probe_dir, create=False)
        probe = probe_store.build_families().to_json()
        probe_store.close()
        assert probe == anchor
