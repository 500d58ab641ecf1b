"""Cross-app dedup acceptance: the corpus index inside the pipeline.

The headline guarantee (ISSUE 7): on a corpus of ≥20 apps sharing ≥70%
of their methods, a warm :class:`CorpusIndex` lets a batch reveal skip
at least half of method reassembly — and the revealed DEX stays
byte-identical to the no-index path, because replaying a recorded body
re-executes the same emission ops the original writer performed.
"""

from collections import Counter

import pytest

from repro.benchsuite.shared_corpus import (
    build_shared_corpus,
    build_shared_corpus_app,
)
from repro.core import body_cache
from repro.dex import write_dex
from repro.index import digests as digests_module
from repro.service import (
    EVENT_INDEX,
    BatchRevealService,
    RevealJob,
    RevealServer,
)

# Small method bodies keep 61 reveals fast while leaving the sharing
# profile (8 shared libs, 2 unique classes → ~78% shared) intact.
_CORPUS_KW = dict(methods_per_class=2)
_APPS = 20


def _jobs(apps):
    return [RevealJob(app.package, app.apk) for app in apps]


class TestWarmCorpusDedup:
    def test_warm_index_skips_half_of_reassembly_byte_identically(
            self, tmp_path):
        index_dir = str(tmp_path / "corpus-index")

        cold_apps = build_shared_corpus(_APPS, **_CORPUS_KW)
        assert cold_apps[0].shared_fraction >= 0.7

        cold = BatchRevealService(index_dir=index_dir, workers=1)
        cold_report = cold.reveal_batch(_jobs(cold_apps))
        assert cold_report.ok_count == _APPS

        # A second wave of *different* apps (new packages, new unique
        # code) embedding the same library pool: the whole-APK result
        # cache cannot help, the method-level corpus index can.
        warm_apps = build_shared_corpus(
            _APPS, package_prefix="org.other", **_CORPUS_KW)
        warm = BatchRevealService(index_dir=index_dir, workers=1)
        warm_report = warm.reveal_batch(_jobs(warm_apps))
        assert warm_report.ok_count == _APPS

        summary = warm_report.index_summary()
        total = summary["bodies_replayed"] + summary["bodies_emitted"]
        assert total > 0
        replay_fraction = summary["bodies_replayed"] / total
        assert replay_fraction >= 0.5, summary

        # Byte-identity: every warm reveal equals the no-index path.
        baseline = BatchRevealService(workers=1)
        baseline_report = baseline.reveal_batch(_jobs(warm_apps))
        for indexed, plain in zip(warm_report.outcomes,
                                  baseline_report.outcomes):
            assert indexed.app_id == plain.app_id
            assert write_dex(indexed.reassembled_dex) == \
                write_dex(plain.reassembled_dex), indexed.app_id

    def test_cold_pass_already_dedups_within_the_batch(self, tmp_path):
        # The service shares one index across its jobs, so apps 2..N of
        # the *first* batch replay the library bodies app 1 registered.
        apps = build_shared_corpus(3, **_CORPUS_KW)
        service = BatchRevealService(
            index_dir=str(tmp_path / "idx"), workers=1)
        report = service.reveal_batch(_jobs(apps))
        summary = report.index_summary()
        assert summary["apps_indexed"] == 3
        assert summary["bodies_replayed"] > 0
        assert summary["corpus_new"] > 0
        assert "index:" in report.render()


class TestDigestOnce:
    def test_a_reveal_digests_each_executed_method_once(
            self, tmp_path, monkeypatch):
        # The probe, the body cache, index registration, the labeler
        # and the cluster store all share one digest pass: one token
        # walk per executed method, one fuzzy digest per executed
        # method plus one per class.
        walks, fuzzy_calls = Counter(), []
        walk, digest = (body_cache.normalized_method_tokens,
                        digests_module.fuzzy_digest)

        def counted_walk(record):
            walks[record.signature] += 1
            return walk(record)

        def counted_digest(data):
            fuzzy_calls.append(len(data))
            return digest(data)
        monkeypatch.setattr(body_cache, "normalized_method_tokens",
                            counted_walk)
        monkeypatch.setattr(digests_module, "fuzzy_digest", counted_digest)

        app = build_shared_corpus_app("com.once.app", corpus_seed=3,
                                      app_seed=1)
        service = BatchRevealService(index_dir=str(tmp_path / "index"),
                                     cluster_dir=str(tmp_path / "cluster"),
                                     workers=1)
        outcome = service.reveal_one(RevealJob(app.package, app.apk))
        assert outcome.status == "ok" and outcome.degraded == []
        assert outcome.cluster_stats["methods_total"] > 0

        entries = service.stores.index.entries()
        methods = [e.method for e in entries if e.kind == "method"]
        classes = [e for e in entries if e.kind == "class"]
        assert len(methods) == outcome.index_stats["index_executed_methods"]
        assert walks == Counter(methods)
        assert len(fuzzy_calls) == len(methods) + len(classes)


class TestIndexStatsSurfaces:
    def test_no_index_no_stats(self):
        apps = build_shared_corpus(1, **_CORPUS_KW)
        report = BatchRevealService(workers=1).reveal_batch(_jobs(apps))
        assert report.index_summary() == {}
        assert "index:" not in report.render()

    def test_server_publishes_index_events(self, tmp_path):
        apps = build_shared_corpus(2, **_CORPUS_KW)
        service = BatchRevealService(
            index_dir=str(tmp_path / "idx"), workers=1)
        with RevealServer(service=service) as server:
            handles = server.submit_many(_jobs(apps))
            outcomes = server.await_many(handles)

        for handle, outcome in zip(handles, outcomes):
            assert outcome.index_stats, outcome.app_id
            assert outcome.to_summary()["index_stats"] == \
                outcome.index_stats
            index_events = [e for e in server.bus.events_for(handle.job_id)
                            if e.kind == EVENT_INDEX]
            assert len(index_events) == 1
            payload = index_events[0].payload
            assert payload == outcome.index_stats
            assert {"bodies_emitted", "bodies_replayed",
                    "corpus_known", "corpus_new"} <= payload.keys()

    @pytest.mark.parametrize("backend,workers", [
        ("thread", 4),
        ("process", 2),
    ])
    def test_parallel_backends_carry_index_stats(self, tmp_path,
                                                 backend, workers):
        apps = build_shared_corpus(4, **_CORPUS_KW)
        service = BatchRevealService(
            index_dir=str(tmp_path / "idx"),
            backend=backend, workers=workers)
        report = service.reveal_batch(_jobs(apps))
        assert report.ok_count == 4
        for outcome in report.outcomes:
            assert outcome.index_stats, outcome.app_id
        summary = report.index_summary()
        assert summary["apps_indexed"] == 4
        # Every executed body was either replayed or freshly emitted.
        assert summary["bodies_replayed"] + summary["bodies_emitted"] > 0
