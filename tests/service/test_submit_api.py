"""One submit/await protocol across server, batch service and HTTP client."""

import warnings

import pytest

from repro.service import (
    STATUS_OK,
    BatchRevealService,
    GatewayClient,
    RevealJob,
    RevealServer,
    SubmitAPI,
)

from tests.conftest import build_simple_apk


def _job(app_id, package=None):
    return RevealJob(app_id=app_id,
                     apk=build_simple_apk(package or f"api.{app_id}"))


class TestOneProtocol:
    def test_every_front_end_implements_submit_api(self):
        for cls in (RevealServer, GatewayClient):
            assert issubclass(cls, SubmitAPI)
        # The service is the executor behind them, not a front end:
        # ``service.server()`` is its submit surface.
        assert not issubclass(BatchRevealService, SubmitAPI)

    def test_protocol_core_is_abstract(self):
        with pytest.raises(TypeError):
            SubmitAPI()
        for name in ("submit", "poll", "cancel", "handles"):
            assert getattr(SubmitAPI, name).__isabstractmethod__

    def test_submit_many_await_many_shared_loop(self):
        # The batched helpers live on the protocol, so every front end
        # inherits one submission loop instead of re-implementing it.
        assert "submit_many" not in RevealServer.__dict__
        assert "submit_many" not in BatchRevealService.__dict__
        assert "await_many" not in GatewayClient.__dict__
        with RevealServer(workers=2) as server:
            handles = server.submit_many([_job("a1"), _job("a2")])
            outcomes = server.await_many(handles, timeout=60)
        assert [o.app_id for o in outcomes] == ["a1", "a2"]
        assert all(o.status == STATUS_OK for o in outcomes)


class TestDeprecatedShims:
    def test_shim_names_are_gone(self):
        for name in ("submit_all", "await_all"):
            assert not hasattr(SubmitAPI, name)
            assert not hasattr(BatchRevealService, name)

    def test_new_names_do_not_warn(self):
        service = BatchRevealService(workers=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with service.server() as server:
                handles = server.submit_many([_job("c1")])
                outcomes = server.await_many(handles, timeout=60)
        assert outcomes[0].status == STATUS_OK
