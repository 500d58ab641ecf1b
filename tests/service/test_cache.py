"""Content-addressed cache: key construction and store behavior."""

import json
import os

import pytest

from repro.benchsuite.smali_lib import multi_class_apk
from repro.core import RevealConfig
from repro.dex import assemble
from repro.runtime import Apk
from repro.service import (
    STATUS_ERROR,
    STATUS_OK,
    BatchRevealService,
    RevealCache,
    RevealOutcome,
    apk_content_key,
    reveal_cache_key,
)

from tests.conftest import build_simple_apk


def _two_activity_apk(main_activity: str) -> Apk:
    """Two activities, one doing more work than the other; only which
    of them is the main activity varies."""
    texts = ["""
.class public Lcom/fix/Main;
.super Landroid/app/Activity;
.method public onCreate(Landroid/os/Bundle;)V
    .registers 3
    invoke-virtual {p0}, Lcom/fix/Main;->work()V
    return-void
.end method
.method public work()V
    .registers 1
    return-void
.end method
""", """
.class public Lcom/fix/Other;
.super Landroid/app/Activity;
.method public onCreate(Landroid/os/Bundle;)V
    .registers 2
    return-void
.end method
"""]
    return multi_class_apk("c.k.launch", main_activity, texts,
                           activities=["Lcom/fix/Main;", "Lcom/fix/Other;"])


def _outcome(app_id="app", status=STATUS_OK, apk=None, **kwargs):
    apk_bytes = (apk or build_simple_apk()).to_bytes()
    return RevealOutcome(app_id=app_id, status=status,
                         revealed_apk_bytes=apk_bytes, **kwargs)


class TestKeys:
    def test_same_content_same_key(self):
        a = build_simple_apk("c.k.same")
        b = build_simple_apk("c.k.same")
        assert apk_content_key(a) == apk_content_key(b)

    def test_package_changes_key(self):
        assert apk_content_key(build_simple_apk("c.k.one")) != \
            apk_content_key(build_simple_apk("c.k.two"))

    def test_dex_bytes_change_key(self):
        apk = build_simple_apk("c.k.dex")
        other = build_simple_apk("c.k.dex")
        other.dex_files = [assemble("""
.class public Lcom/fix/Simple;
.super Landroid/app/Activity;
.method public onCreate(Landroid/os/Bundle;)V
    .registers 2
    return-void
.end method
""")]
        assert apk_content_key(apk) != apk_content_key(other)

    def test_asset_changes_key(self):
        apk = build_simple_apk("c.k.asset")
        other = build_simple_apk("c.k.asset")
        other.assets["payload.bin"] = b"\x00\x01"
        assert apk_content_key(apk) != apk_content_key(other)

    @pytest.mark.parametrize("field, value", [
        ("main_activity", "Lcom/fix/Other;"),
        ("activities", ["Lcom/fix/Simple;", "Lcom/fix/Other;"]),
        ("version", "2.0"),
    ])
    def test_manifest_changes_key(self, field, value):
        # The revealed APK carries every manifest field, and the launch
        # drives the main activity.
        apk = build_simple_apk("c.k.manifest")
        other = build_simple_apk("c.k.manifest")
        setattr(other, field, value)
        assert apk_content_key(apk) != apk_content_key(other)

    def test_main_activity_is_not_a_cache_hit(self):
        main = _two_activity_apk("Lcom/fix/Main;")
        other = _two_activity_apk("Lcom/fix/Other;")
        service = BatchRevealService()
        first = service.reveal_one(main)
        second = service.reveal_one(other)
        assert first.status == second.status == STATUS_OK
        assert not second.cache_hit
        assert second.revealed_apk.main_activity == "Lcom/fix/Other;"
        assert second.collector_stats != first.collector_stats
        assert second.collector_stats == \
            BatchRevealService().reveal_one(
                _two_activity_apk("Lcom/fix/Other;")).collector_stats

    def test_config_changes_key(self):
        apk = build_simple_apk("c.k.cfg")
        default = reveal_cache_key(apk, RevealConfig())
        assert default != reveal_cache_key(apk, RevealConfig(run_budget=10))
        assert default != reveal_cache_key(
            apk, RevealConfig(use_force_execution=True))
        assert default == reveal_cache_key(apk, RevealConfig())

    def test_archive_dir_is_not_identity(self):
        # Where collection files land on disk doesn't change the result.
        apk = build_simple_apk("c.k.dir")
        assert reveal_cache_key(apk, RevealConfig()) == \
            reveal_cache_key(apk, RevealConfig(archive_dir="/tmp/elsewhere"))

    def test_device_state_changes_key(self):
        # Two profiles sharing a *name* must not share reveal results:
        # device state (IMEI, location, emulator-ness) feeds sources.
        import dataclasses

        from repro.runtime import NEXUS_5X

        custom = dataclasses.replace(NEXUS_5X, imei="111111111111111")
        apk = build_simple_apk("c.k.dev")
        assert reveal_cache_key(apk, RevealConfig()) != \
            reveal_cache_key(apk, RevealConfig(device=custom))

    def test_salt_changes_key(self):
        apk = build_simple_apk("c.k.salt")
        config = RevealConfig()
        assert reveal_cache_key(apk, config) != \
            reveal_cache_key(apk, config, salt="sapienz")

    def test_config_key_is_stable_text(self):
        key = RevealConfig().config_hash()
        assert key == RevealConfig().config_hash()
        assert len(key) == 64

    def test_config_hash_is_the_sole_config_input(self):
        # Two configs with equal config_hash() produce equal cache keys,
        # whatever else differs (archive_dir is not identity).
        apk = build_simple_apk("c.k.sole")
        a = RevealConfig()
        b = RevealConfig(archive_dir="/tmp/elsewhere")
        assert a.config_hash() == b.config_hash()
        assert reveal_cache_key(apk, a) == reveal_cache_key(apk, b)


class TestMemoryBackend:
    def test_round_trip(self):
        cache = RevealCache()
        outcome = _outcome("mem.app", dump_size_bytes=123,
                           collector_stats={"classes_collected": 1})
        assert cache.put("k1", outcome)
        loaded = cache.get("k1")
        assert loaded is not None
        assert loaded.cache_hit
        assert loaded.app_id == "mem.app"
        assert loaded.dump_size_bytes == 123
        assert loaded.collector_stats == {"classes_collected": 1}
        assert loaded.revealed_apk.package == build_simple_apk().package

    def test_miss(self):
        assert RevealCache().get("nope") is None

    def test_non_cacheable_status_rejected(self):
        cache = RevealCache()
        assert not cache.put("k", _outcome(status=STATUS_ERROR))
        assert cache.get("k") is None
        assert len(cache) == 0


class TestGetOrCompute:
    def test_miss_computes_and_stores(self):
        cache = RevealCache()
        calls = []

        def compute():
            calls.append(1)
            return _outcome("goc")

        outcome, hit = cache.get_or_compute("k", compute)
        assert not hit and outcome.app_id == "goc"
        outcome, hit = cache.get_or_compute("k", compute)
        assert hit and outcome.cache_hit
        assert len(calls) == 1

    def test_empty_key_always_computes(self):
        cache = RevealCache()
        calls = []

        def compute():
            calls.append(1)
            return _outcome()

        for _ in range(2):
            _, hit = cache.get_or_compute("", compute)
            assert not hit
        assert len(calls) == 2

    def test_uncacheable_result_not_replicated_to_waiters(self):
        # The leader's error outcome is not admitted; a later caller
        # recomputes instead of inheriting the transient failure.
        cache = RevealCache()
        statuses = iter([STATUS_ERROR, STATUS_OK])
        calls = []

        def compute():
            calls.append(1)
            return _outcome(status=next(statuses))

        first, hit1 = cache.get_or_compute("k", compute)
        second, hit2 = cache.get_or_compute("k", compute)
        assert first.status == STATUS_ERROR and not hit1
        assert second.status == STATUS_OK and not hit2
        assert len(calls) == 2

    def test_concurrent_misses_run_one_reveal(self):
        import threading
        import time

        cache = RevealCache()
        calls = []
        barrier = threading.Barrier(8)
        results = []

        def compute():
            calls.append(1)
            time.sleep(0.02)  # widen the window concurrent misses race in
            return _outcome("leader")

        def worker():
            barrier.wait()
            results.append(cache.get_or_compute("hot", compute))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(calls) == 1  # one reveal, seven waiters
        assert len(results) == 8
        assert sum(1 for _, hit in results if not hit) == 1
        assert all(outcome.status == STATUS_OK for outcome, _ in results)

    def test_concurrent_puts_do_not_corrupt_memory_store(self):
        import threading

        cache = RevealCache()

        def hammer(prefix):
            for i in range(50):
                cache.put(f"{prefix}-{i}", _outcome(f"{prefix}-{i}"))
                assert cache.get(f"{prefix}-{i}") is not None

        threads = [threading.Thread(target=hammer, args=(t,))
                   for t in ("a", "b", "c", "d")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(cache) == 200


class TestDiskBackend:
    def test_round_trip_with_apk_sidecar(self, tmp_path):
        cache = RevealCache(str(tmp_path))
        apk = build_simple_apk("disk.app")
        assert cache.put("deadbeef", _outcome("disk.app", apk=apk))
        assert os.path.exists(tmp_path / "deadbeef.json")
        assert os.path.exists(tmp_path / "deadbeef.apk")
        # A *fresh* cache object sees the record (persistence).
        loaded = RevealCache(str(tmp_path)).get("deadbeef")
        assert loaded is not None and loaded.cache_hit
        assert loaded.revealed_apk.package == "disk.app"

    def test_malformed_entry_is_a_miss(self, tmp_path):
        cache = RevealCache(str(tmp_path))
        (tmp_path / "bad.json").write_text("{not json")
        assert cache.get("bad") is None

    def test_version_mismatch_is_a_miss(self, tmp_path):
        cache = RevealCache(str(tmp_path))
        cache.put("v", _outcome())
        path = tmp_path / "v.json"
        record = json.loads(path.read_text())
        record["version"] = 999
        path.write_text(json.dumps(record))
        assert cache.get("v") is None

    def test_missing_sidecar_is_a_miss(self, tmp_path):
        cache = RevealCache(str(tmp_path))
        cache.put("s", _outcome())
        os.unlink(tmp_path / "s.apk")
        assert cache.get("s") is None

    def test_len_counts_records(self, tmp_path):
        cache = RevealCache(str(tmp_path))
        cache.put("a", _outcome("a"))
        cache.put("b", _outcome("b"))
        assert len(cache) == 2
        assert "a" in cache and "c" not in cache

    def test_index_stats_round_trip(self, tmp_path):
        stats = {"bodies_emitted": 3, "bodies_replayed": 9,
                 "corpus_known": 9, "corpus_new": 3}
        cache = RevealCache(str(tmp_path))
        cache.put("idx", _outcome("idx.app", index_stats=stats))
        loaded = RevealCache(str(tmp_path)).get("idx")
        assert loaded is not None
        assert loaded.index_stats == stats


class TestDiskCorruptionTolerance:
    """Corrupt or truncated on-disk entries degrade to misses.

    A batch sharing its cache directory with a crashed or concurrent
    writer must never die on a half-written record: every corruption
    flavour is a miss (the reveal recomputes), reported through one
    warning per cache instance rather than one per probe.
    """

    def _corrupt_entries(self, tmp_path):
        (tmp_path / "truncated.json").write_text('{"version": 1, "app_')
        (tmp_path / "notdict.json").write_text('["a", "list"]')
        (tmp_path / "barekeys.json").write_text('{"version": 1}')
        return ["truncated", "notdict", "barekeys"]

    def test_every_corruption_flavour_is_a_miss(self, tmp_path):
        cache = RevealCache(str(tmp_path))
        for key in self._corrupt_entries(tmp_path):
            assert cache.get(key) is None, key

    def test_corrupt_entries_do_not_hide_good_ones(self, tmp_path):
        cache = RevealCache(str(tmp_path))
        cache.put("good", _outcome("good.app"))
        self._corrupt_entries(tmp_path)
        assert cache.get("truncated") is None
        loaded = cache.get("good")
        assert loaded is not None and loaded.app_id == "good.app"

    def test_warns_once_per_instance(self, tmp_path, caplog):
        import logging

        cache = RevealCache(str(tmp_path))
        keys = self._corrupt_entries(tmp_path)
        with caplog.at_level(logging.WARNING, logger="repro.service.cache"):
            for key in keys + keys:  # six corrupt probes
                assert cache.get(key) is None
        warnings = [r for r in caplog.records
                    if r.name == "repro.service.cache"]
        assert len(warnings) == 1
        assert "corrupt" in warnings[0].getMessage()

    def test_missing_file_is_a_silent_miss(self, tmp_path, caplog):
        import logging

        cache = RevealCache(str(tmp_path))
        with caplog.at_level(logging.WARNING, logger="repro.service.cache"):
            assert cache.get("never-written") is None
        assert not [r for r in caplog.records
                    if r.name == "repro.service.cache"]
