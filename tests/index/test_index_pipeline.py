"""Cross-app dedup acceptance: the corpus index inside the pipeline.

The headline guarantee (ISSUE 7): on a corpus of ≥20 apps sharing ≥70%
of their methods, a warm :class:`CorpusIndex` lets a batch reveal skip
at least half of method reassembly — and the revealed DEX stays
byte-identical to the no-index path, because replaying a recorded body
re-executes the same emission ops the original writer performed.
"""

import os
from collections import Counter

import pytest

from repro.benchsuite.shared_corpus import (
    build_shared_corpus,
    build_shared_corpus_app,
)
from repro.cluster.store import ClusterStore
from repro.core import Pipeline, RevealConfig, resume_exploration
from repro.dex import write_dex
from repro.index import CorpusIndex
from repro.index import corpus as corpus_module
from repro.index import digests as digests_module
from repro.service import (
    EVENT_INDEX,
    BatchRevealService,
    RevealJob,
    RevealServer,
)
from repro.service.worker import collection_zip_bytes

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

        cold = BatchRevealService(
            config=RevealConfig(index_dir=index_dir), workers=1)
        cold_report = cold.reveal_batch(_jobs(cold_apps))
        assert cold_report.ok_count == _APPS

        # A second wave of *different* apps (new packages, new unique
        # code) embedding the same library pool: the whole-APK result
        # cache cannot help, the method-level corpus index can.
        warm_apps = build_shared_corpus(
            _APPS, package_prefix="org.other", **_CORPUS_KW)
        warm = BatchRevealService(
            config=RevealConfig(index_dir=index_dir), workers=1)
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
            config=RevealConfig(index_dir=str(tmp_path / "idx")), workers=1)
        report = service.reveal_batch(_jobs(apps))
        summary = report.index_summary()
        assert summary["apps_indexed"] == 3
        assert summary["bodies_replayed"] > 0
        assert summary["corpus_new"] > 0
        assert "index:" in report.render()


def _count_digest_work(monkeypatch):
    """Count token walks by signature and ``fuzzy_digest`` calls by
    input length, for the rest of the test."""
    walks, fuzzy_calls = Counter(), []
    walk, digest = (digests_module.normalized_method_tokens,
                    digests_module.fuzzy_digest)

    def counted_walk(doc):
        walks[doc["sig"]] += 1
        return walk(doc)

    def counted_digest(data):
        fuzzy_calls.append(len(data))
        return digest(data)
    monkeypatch.setattr(digests_module, "normalized_method_tokens",
                        counted_walk)
    monkeypatch.setattr(digests_module, "fuzzy_digest", counted_digest)
    return walks, fuzzy_calls


def _member_sets(entries, app_id: str) -> set:
    """Each class's member exact digests, signature order, for one app."""
    by_class: dict = {}
    for entry in entries:
        if entry.kind == "method" and entry.app_id == app_id:
            by_class.setdefault(entry.class_desc, []).append(entry)
    return {tuple(e.exact for e in sorted(members, key=lambda e: e.method))
            for members in by_class.values()}


class TestDigestOnce:
    def test_a_reveal_digests_each_executed_method_once(
            self, tmp_path, monkeypatch):
        # The probe, the body cache, index registration, the labeler
        # and the cluster store all share one digest pass: one token
        # walk per executed method, one fuzzy digest per executed
        # method plus one per class.
        walks, fuzzy_calls = _count_digest_work(monkeypatch)

        app = build_shared_corpus_app("com.once.app", corpus_seed=3,
                                      app_seed=1)
        service = BatchRevealService(config=_config(str(tmp_path)),
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

    def test_a_collect_only_job_digests_nothing(self, tmp_path,
                                                monkeypatch):
        # Only reassembly talks to the index: collection neither probes
        # it nor digests for it.
        hashed = []
        for module in (corpus_module, digests_module):
            def counted(doc, digest=module.document_digest):
                hashed.append(doc["sig"])
                return digest(doc)
            monkeypatch.setattr(module, "document_digest", counted)
        app = build_shared_corpus_app("com.once.collect", corpus_seed=3,
                                      app_seed=1)
        service = BatchRevealService(
            config=RevealConfig(index_dir=str(tmp_path / "index")), workers=1)
        outcome = service.reveal_one(
            RevealJob(app.package, app.apk, collect_only=True))
        assert outcome.status == "ok" and outcome.degraded == []
        assert outcome.collector_stats["methods_executed"] > 0
        assert hashed == []
        assert outcome.index_stats == {}
        assert service.stores.index.entries() == []

    def test_a_second_reveal_digests_only_what_the_first_did_not(
            self, tmp_path, monkeypatch):
        # The service keeps its index, and the index keeps the digests
        # it computed: a second app sharing classes with the first walks
        # tokens only for exact digests the first did not produce, and
        # digests a class only for a member set the first did not have.
        walks, fuzzy_calls = _count_digest_work(monkeypatch)
        first, second = (build_shared_corpus_app(
            f"com.once.app{i}", corpus_seed=3, app_seed=i) for i in (1, 2))
        service = BatchRevealService(config=_config(str(tmp_path)),
                                     workers=1)
        index = service.stores.index

        one = service.reveal_one(RevealJob(first.package, first.apk))
        assert one.status == "ok" and one.degraded == []
        entries = index.entries()
        methods = [e for e in entries if e.kind == "method"]
        assert walks == Counter(e.method for e in methods)
        assert len(fuzzy_calls) == len(methods) + len(
            _member_sets(entries, first.package))

        walks.clear()
        fuzzy_calls.clear()
        two = service.reveal_one(RevealJob(second.package, second.apk))
        assert two.status == "ok" and two.degraded == []
        entries = index.entries()
        seen = {e.exact for e in methods}
        added = [e for e in entries
                 if e.kind == "method" and e.app_id == second.package]
        new = [e for e in added if e.exact not in seen]
        assert 0 < len(new) < len(added)  # the apps share classes
        new_sets = (_member_sets(entries, second.package)
                    - _member_sets(entries, first.package))
        assert 0 < len(new_sets) < len(_member_sets(entries, second.package))
        assert walks == Counter(e.method for e in new)
        assert len(fuzzy_calls) == len(new) + len(new_sets)


class TestProbeCountsTheReassembledArchive:
    def test_a_resume_probes_the_merged_archive(self, tmp_path):
        # A resume reassembles the saved archive merged with the
        # session's, and its probe counts that archive: every method
        # the probe finds in the corpus is one reassembly replays.
        app = build_shared_corpus_app("com.probe.resume", corpus_seed=1,
                                      app_seed=99)
        archive = str(tmp_path / "archive")
        config = RevealConfig(use_force_execution=True, max_paths=1,
                              archive_dir=archive,
                              index_dir=str(tmp_path / "index"))
        Pipeline(config).run(app.apk)
        resumed = resume_exploration(
            archive, app.apk,
            config=config.replace(max_paths=8, archive_dir=None))
        stats = resumed.index_stats
        assert 0 < stats["bodies_replayed"] < stats["index_executed_methods"]
        assert stats["index_known_methods"] == stats["bodies_replayed"]


def _products(outcome) -> tuple:
    """What one reveal with both stores hands its caller."""
    return (outcome.app_id, outcome.status, outcome.degraded,
            outcome.index_stats, outcome.cluster_stats,
            outcome.revealed_apk.to_bytes(),
            collection_zip_bytes(outcome.result.archive))


def _store_files(root: str) -> dict:
    """Every file under both store directories after ``compact()`` +
    ``build_families()``.  A compacted segment is named by a random
    writer id, so it is keyed by its directory; its lines are sorted,
    so its bytes do not depend on which writers journalled the rows."""
    index = CorpusIndex(os.path.join(root, "index"), create=False)
    index.compact()
    index.close()
    cluster = ClusterStore(os.path.join(root, "cluster"), create=False)
    cluster.compact()
    cluster.build_families()
    cluster.close()
    files = {}
    for dirpath, _dirs, names in os.walk(root):
        for name in names:
            with open(os.path.join(dirpath, name), "rb") as fh:
                data = fh.read()
            rel = os.path.relpath(os.path.join(dirpath, name), root)
            if os.path.basename(dirpath) == "segments":
                rel = os.path.dirname(rel)
            assert rel not in files, rel  # one segment per store
            files[rel] = data
    return files


def _config(root: str) -> RevealConfig:
    return RevealConfig(index_dir=os.path.join(root, "index"),
                        cluster_dir=os.path.join(root, "cluster"))


def _close(service: BatchRevealService) -> None:
    service.stores.index.close()
    service.stores.cluster.close()


class TestServiceLifetime:
    """A service keeps its index, and the index the digests it computed,
    across jobs.  Its reveals and store files must equal those of a
    fresh service per job over the same store directories, whose memo
    starts empty every time, and of a two-thread server."""

    def test_one_service_equals_a_fresh_service_per_job(self, tmp_path):
        apps = build_shared_corpus(5, **_CORPUS_KW)
        fresh_root, kept_root = str(tmp_path / "fresh"), str(tmp_path / "kept")
        fresh = []
        for job in _jobs(apps):
            service = BatchRevealService(config=_config(fresh_root), workers=1)
            fresh.append(_products(service.reveal_one(job)))
            _close(service)
        service = BatchRevealService(config=_config(kept_root), workers=1)
        kept = [_products(service.reveal_one(job)) for job in _jobs(apps)]
        _close(service)
        assert [p[1:3] for p in fresh] == [("ok", [])] * len(apps)
        assert any(p[3]["corpus_known"] for p in fresh)  # apps share
        assert kept == fresh
        assert _store_files(kept_root) == _store_files(fresh_root)

    def test_a_two_thread_server_equals_a_fresh_service_per_job(
            self, tmp_path):
        apps = build_shared_corpus(5, **_CORPUS_KW)
        fresh_root = str(tmp_path / "fresh")
        fresh = []
        for job in _jobs(apps):
            service = BatchRevealService(config=_config(fresh_root), workers=1)
            fresh.append(_products(service.reveal_one(job)))
            _close(service)
        fresh_files = _store_files(fresh_root)

        # One job at a time: the two threads take turns, so each reveal
        # sees what the one before it registered, as a fresh service does.
        serial_root = str(tmp_path / "serial")
        service = BatchRevealService(config=_config(serial_root), workers=2)
        with RevealServer(service=service, workers=2) as server:
            serial = [_products(server.submit(job).wait(timeout=120))
                      for job in _jobs(apps)]
        _close(service)
        assert serial == fresh
        assert _store_files(serial_root) == fresh_files

        # All at once: which job sees which registrations depends on
        # the threads, so the stats may differ; the bytes may not.
        racing_root = str(tmp_path / "racing")
        service = BatchRevealService(config=_config(racing_root), workers=2)
        with RevealServer(service=service, workers=2) as server:
            racing = [_products(outcome) for outcome in server.await_many(
                server.submit_many(_jobs(apps)), timeout=120)]
        _close(service)
        assert [p[:3] + p[5:] for p in racing] == \
            [p[:3] + p[5:] for p in fresh]
        assert _store_files(racing_root) == fresh_files


class TestIndexStatsSurfaces:
    def test_no_index_no_stats(self):
        apps = build_shared_corpus(1, **_CORPUS_KW)
        report = BatchRevealService(workers=1).reveal_batch(_jobs(apps))
        assert report.index_summary() == {}
        assert "index:" not in report.render()

    def test_server_publishes_index_events(self, tmp_path):
        apps = build_shared_corpus(2, **_CORPUS_KW)
        service = BatchRevealService(
            config=RevealConfig(index_dir=str(tmp_path / "idx")), workers=1)
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

    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_batch_carries_index_stats(self, tmp_path, workers):
        apps = build_shared_corpus(4, **_CORPUS_KW)
        service = BatchRevealService(
            config=RevealConfig(index_dir=str(tmp_path / "idx")),
            workers=workers)
        report = service.reveal_batch(_jobs(apps))
        assert report.ok_count == 4
        for outcome in report.outcomes:
            assert outcome.index_stats, outcome.app_id
        summary = report.index_summary()
        assert summary["apps_indexed"] == 4
        # Every executed body was either replayed or freshly emitted.
        assert summary["bodies_replayed"] + summary["bodies_emitted"] > 0
