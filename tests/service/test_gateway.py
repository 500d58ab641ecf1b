"""RevealGateway end to end: HTTP submit → worker fleet → artifacts."""

import json
import threading
import urllib.request

import pytest

from repro.core import RevealConfig
from repro.service import (
    ARTIFACT_REVEALED_APK,
    EVENT_DONE,
    EVENT_SUBMITTED,
    STATUS_OK,
    BatchRevealService,
    GatewayClient,
    GatewayError,
    JobStore,
    RevealGateway,
    RevealJob,
    RevealWorker,
    TERMINAL_EVENTS,
    artifact_digest,
)

from tests.conftest import build_simple_apk


def _store(tmp_path) -> JobStore:
    return JobStore(str(tmp_path / "store"))


def _job(app_id, package=None):
    return RevealJob(app_id=app_id,
                     apk=build_simple_apk(package or f"gw.{app_id}"))


def _drain(store, *, worker_id="w1", jobs=8, linger_s=3.0):
    worker = RevealWorker(store, worker_id=worker_id, poll_interval_s=0.05)
    return worker.run(max_jobs=jobs, linger_s=linger_s)


class TestEndToEnd:
    def test_http_reveal_byte_identical_to_in_process(self, tmp_path):
        # The acceptance path: submit over HTTP, let two fleet workers
        # race the queue, and diff the remote outcome — and the fetched
        # artifact — against an in-process reveal of the same APK.
        store = _store(tmp_path)
        with RevealGateway(store) as gateway:
            client = GatewayClient(gateway.url, poll_interval_s=0.05)
            handles = client.submit_many([_job("e2e.a"), _job("e2e.b")])

            threads = [
                threading.Thread(target=_drain, args=(store,),
                                 kwargs={"worker_id": f"w{i}"})
                for i in range(2)
            ]
            for t in threads:
                t.start()
            outcomes = client.await_many(handles, timeout=120)
            for t in threads:
                t.join()

            assert [o.app_id for o in outcomes] == ["e2e.a", "e2e.b"]
            local = BatchRevealService(workers=1)
            for outcome, handle in zip(outcomes, handles):
                assert outcome.status == STATUS_OK
                remote_bytes = outcome.revealed_apk.to_bytes()
                reference = local.reveal_one(_job(handle.app_id))
                assert remote_bytes == reference.revealed_apk.to_bytes()
                # The artifact endpoint serves the identical bytes.
                digest = client.job(handle.job_id)["artifacts"][
                    ARTIFACT_REVEALED_APK]
                assert client.fetch_artifact(digest) == remote_bytes
                assert digest == artifact_digest(remote_bytes)

    def test_job_digest_matches_handle_to_dict_shape(self, tmp_path):
        store = _store(tmp_path)
        with RevealGateway(store) as gateway:
            client = GatewayClient(gateway.url)
            handle = client.submit(_job("shape"))
            data = client.job(handle.job_id)
            # One serialization everywhere: the gateway returns exactly
            # JobHandle.to_dict(), same keys as the status CLI rows.
            assert set(data) == set(handle.to_dict())
            assert data["state"] == "queued"
            assert data["app_id"] == "shape"

    def test_events_list_and_follow_stream(self, tmp_path):
        store = _store(tmp_path)
        with RevealGateway(store) as gateway:
            client = GatewayClient(gateway.url, poll_interval_s=0.05)
            handle = client.submit(_job("events"))
            follower_kinds = []

            def follow():
                for event in client.events(handle.job_id, follow=True,
                                           timeout=60):
                    follower_kinds.append(event.kind)
                    if event.kind in TERMINAL_EVENTS:
                        return

            follower = threading.Thread(target=follow)
            follower.start()
            _drain(store)
            handle.wait(timeout=120)
            follower.join(timeout=60)
            assert not follower.is_alive()
            assert follower_kinds[0] == EVENT_SUBMITTED
            assert follower_kinds[-1] == EVENT_DONE
            # The one-shot list agrees with the live stream.
            kinds = [e.kind for e in client.events(handle.job_id)]
            assert kinds == follower_kinds

    def test_cancel_queued_job_via_http(self, tmp_path):
        store = _store(tmp_path)
        with RevealGateway(store) as gateway:
            client = GatewayClient(gateway.url)
            handle = client.submit(_job("doomed"))
            assert client.cancel(handle.job_id) is True
            assert client.cancel(handle.job_id) is False  # already terminal
            assert client.cancel("no-such-job") is False
            assert client.poll(handle.job_id).state == "cancelled"


class TestSubmitGuards:
    def test_idempotency_key_deduplicates(self, tmp_path):
        store = _store(tmp_path)
        with RevealGateway(store) as gateway:
            client = GatewayClient(gateway.url)
            first = client.submit(_job("idem"), idempotency_key="k-1")
            second = client.submit(_job("idem"), idempotency_key="k-1")
            assert second.job_id == first.job_id
            assert len(store.load_all()) == 1
            other = client.submit(_job("idem"), idempotency_key="k-2")
            assert other.job_id != first.job_id

    def test_bad_apk_rejected_400(self, tmp_path):
        store = _store(tmp_path)
        with RevealGateway(store) as gateway:
            url = gateway.url + "/v1/jobs"
            body = json.dumps({"app_id": "junk",
                               "apk_b64": "AAAA"}).encode()
            request = urllib.request.Request(
                url, data=body, method="POST",
                headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request, timeout=10)
            assert err.value.code == 400
            assert store.load_all() == []

    def test_bad_priority_rejected_400(self, tmp_path):
        store = _store(tmp_path)
        with RevealGateway(store) as gateway:
            client = GatewayClient(gateway.url)
            with pytest.raises(ValueError):
                client.submit(_job("p"), priority="ludicrous")
            # A raw request with a junk lane is the gateway's 400.
            body = json.dumps({
                "app_id": "p",
                "apk_b64": JobStore.encode_apk(build_simple_apk("gw.p")),
                "priority": "ludicrous",
            }).encode()
            request = urllib.request.Request(
                gateway.url + "/v1/jobs", data=body, method="POST",
                headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request, timeout=10)
            assert err.value.code == 400

    @pytest.mark.parametrize("field, value", [
        ("meta", [1, 2]),
        ("meta", "abc"),
        ("meta", 5),
        ("collect_only", "false"),
        ("app_id", [1]),
        ("app_id", {"k": 1}),
        ("cache_salt", 7),
    ])
    def test_mistyped_envelope_field_rejected_400(self, tmp_path, field,
                                                  value):
        store = _store(tmp_path)
        with RevealGateway(store) as gateway:
            body = json.dumps({
                "app_id": "typed",
                "apk_b64": JobStore.encode_apk(build_simple_apk("gw.typed")),
                field: value,
            }).encode()
            request = urllib.request.Request(
                gateway.url + "/v1/jobs", data=body, method="POST",
                headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(request, timeout=10)
            assert err.value.code == 400
            assert repr(field) in json.loads(err.value.read())["error"]
            assert store.load_all() == []

    def test_oversize_upload_rejected_413(self, tmp_path):
        store = _store(tmp_path)
        with RevealGateway(store, max_upload_bytes=64) as gateway:
            client = GatewayClient(gateway.url)
            with pytest.raises(GatewayError) as err:
                client.submit(_job("big"))
            assert err.value.status == 413


class TestTenancy:
    def test_unknown_token_is_401(self, tmp_path):
        store = _store(tmp_path)
        tenants = {"sesame": "alice"}
        with RevealGateway(store, tenants=tenants) as gateway:
            for client in (GatewayClient(gateway.url),
                           GatewayClient(gateway.url, token="wrong")):
                with pytest.raises(GatewayError) as err:
                    client.submit(_job("auth"))
                assert err.value.status == 401
            trusted = GatewayClient(gateway.url, token="sesame")
            handle = trusted.submit(_job("auth"))
            assert store.load(handle.job_id)["meta"]["tenant"] == "alice"

    def test_rate_limit_is_429(self, tmp_path):
        store = _store(tmp_path)
        with RevealGateway(store, rate_limit_per_min=2) as gateway:
            client = GatewayClient(gateway.url)
            client.submit(_job("r1"))
            client.submit(_job("r2"))
            with pytest.raises(GatewayError) as err:
                client.submit(_job("r3"))
            assert err.value.status == 429

    def test_active_job_quota_is_429(self, tmp_path):
        store = _store(tmp_path)
        with RevealGateway(store, max_active_per_tenant=1) as gateway:
            client = GatewayClient(gateway.url)
            client.submit(_job("q1"))
            with pytest.raises(GatewayError) as err:
                client.submit(_job("q2"))
            assert err.value.status == 429


class TestReadEndpoints:
    def test_unknown_job_404(self, tmp_path):
        store = _store(tmp_path)
        with RevealGateway(store) as gateway:
            client = GatewayClient(gateway.url)
            with pytest.raises(KeyError):
                client.poll("nope")
            with pytest.raises(GatewayError) as err:
                client.job("nope")
            assert err.value.status == 404

    def test_artifact_guards(self, tmp_path):
        store = _store(tmp_path)
        with RevealGateway(store) as gateway:
            client = GatewayClient(gateway.url)
            assert client.fetch_artifact(artifact_digest(b"gone")) is None
            with pytest.raises(GatewayError) as err:
                client.fetch_artifact("not-a-digest")
            assert err.value.status == 400

    def test_healthz_and_stats(self, tmp_path):
        store = _store(tmp_path)
        with RevealGateway(store) as gateway:
            url = gateway.url
            client = GatewayClient(url)
            assert client.healthz() is True
            client.submit(_job("s1"))
            stats = client.stats()
            assert stats["jobs"]["queued"] == 1
            assert stats["workers"] == []
            # The index/cluster counters exist (zeroed) even before any
            # worker with those dirs attached has run.
            assert stats["index"] == {"apps_indexed": 0,
                                      "bodies_emitted": 0,
                                      "bodies_replayed": 0}
            assert stats["cluster"] == {"apps_labeled": 0,
                                        "labels_assigned": 0}
        # A closed gateway reads unhealthy, not an exception.
        assert GatewayClient(url, request_timeout_s=2).healthz() is False

    def test_stats_aggregate_index_and_cluster_counters(self, tmp_path):
        # Workers attached to an index + cluster store feed per-job
        # outcome summaries back through the job store; /v1/stats rolls
        # them up fleet-wide.
        store = _store(tmp_path)
        with RevealGateway(store) as gateway:
            client = GatewayClient(gateway.url, poll_interval_s=0.05)
            handles = client.submit_many([_job("ix.a"), _job("ix.b")])
            service = BatchRevealService(config=RevealConfig(
                index_dir=str(tmp_path / "idx"),
                cluster_dir=str(tmp_path / "fam")))
            worker = RevealWorker(store, service, worker_id="wx",
                                  poll_interval_s=0.05)
            worker.run(max_jobs=2, linger_s=3.0)
            client.await_many(handles, timeout=120)

            stats = client.stats()
            assert stats["index"]["apps_indexed"] == 2
            assert stats["index"]["bodies_emitted"] + \
                stats["index"]["bodies_replayed"] > 0
            assert stats["cluster"]["apps_labeled"] == 2
            # The second app's methods were known from the first.
            assert stats["cluster"]["labels_assigned"] >= 1
