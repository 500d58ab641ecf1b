"""Event parity: one job, four front ends, one event stream.

The same plain job revealed on a fresh index and cluster store must
emit the same sequence of event kinds whether it runs through the
library (``reveal_one`` with a bus), an in-process ``RevealServer``,
the gateway plus a fleet worker, or ``submit --store`` plus ``serve``.
The three front ends with a lifecycle agree kind for kind; the library,
which has none, emits the same sequence minus the lifecycle kinds.
"""

import contextlib
import io

from repro.core import RevealConfig
from repro.service import (
    EVENT_CLUSTER,
    EVENT_DONE,
    EVENT_INDEX,
    EVENT_STAGE,
    EVENT_STARTED,
    EVENT_SUBMITTED,
    BatchRevealService,
    EventBus,
    GatewayClient,
    JobStore,
    RevealGateway,
    RevealServer,
    RevealWorker,
)
from repro.service.cli import build_corpus_jobs, main

#: What every front end with a lifecycle must journal for the job.
LIFECYCLE_KINDS = [EVENT_SUBMITTED, EVENT_STARTED] + [EVENT_STAGE] * 4 \
    + [EVENT_INDEX, EVENT_CLUSTER, EVENT_DONE]
LIFECYCLE = {EVENT_SUBMITTED, EVENT_STARTED, EVENT_DONE}

#: ``submit --store`` only takes benchsuite corpora, so every front end
#: reveals the same corpus app.
CORPUS = ["--corpus", "aosp", "--limit", "1"]


def _job():
    return build_corpus_jobs("aosp", 1)[0]


def _service(tmp_path, name):
    """A one-worker service over a fresh index and cluster store."""
    return BatchRevealService(config=RevealConfig(
        index_dir=str(tmp_path / name / "index"),
        cluster_dir=str(tmp_path / name / "cluster")), workers=1)


def _journal_kinds(store, job_id):
    return [e["kind"] for e in store.events() if e["job_id"] == job_id]


def _server_kinds(tmp_path):
    with RevealServer(_service(tmp_path, "server"), workers=1) as server:
        handle = server.submit(_job())
        handle.wait(timeout=120)
    return [e.kind for e in server.bus.events_for(handle.job_id)]


def _fleet_kinds(tmp_path):
    store = JobStore(str(tmp_path / "fleet" / "queue"))
    with RevealGateway(store) as gateway:
        handle = GatewayClient(gateway.url).submit(_job())
    RevealWorker(store, _service(tmp_path, "fleet"), worker_id="w1").run()
    return _journal_kinds(store, handle.job_id)


def _cli_kinds(tmp_path):
    queue = str(tmp_path / "cli" / "queue")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["submit", "--store", queue] + CORPUS) == 0
        assert main(["serve", "--store", queue, "--workers", "1",
                     "--index-dir", str(tmp_path / "cli" / "index"),
                     "--cluster-dir", str(tmp_path / "cli" / "cluster"),
                     "--json"]) == 0
    store = JobStore(queue)
    job_id, = [r["job_id"] for r in store.load_all()]
    return _journal_kinds(store, job_id)


def _library_kinds(tmp_path):
    service = _service(tmp_path, "library")
    bus = EventBus()
    outcome = service.reveal_one(_job(), job_id="lib", bus=bus)
    assert outcome.status == "ok" and outcome.degraded == []
    return [e.kind for e in bus.events_for("lib")]


def test_every_front_end_emits_the_same_kinds(tmp_path):
    fronts = {
        "server": _server_kinds(tmp_path),
        "gateway+worker": _fleet_kinds(tmp_path),
        "submit+serve": _cli_kinds(tmp_path),
    }
    assert fronts == {name: LIFECYCLE_KINDS for name in fronts}
    assert _library_kinds(tmp_path) == \
        [kind for kind in LIFECYCLE_KINDS if kind not in LIFECYCLE]
