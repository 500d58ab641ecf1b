"""End-to-end gateway smoke: HTTP submit → worker fleet → artifact diff.

Boots a :class:`RevealGateway` on an ephemeral port, joins two
:class:`RevealWorker` fleet members to its store, submits a small
F-Droid corpus over real HTTP with :class:`GatewayClient`, and then
holds the result to the acceptance bar:

* every job completes ``done`` with status ``ok``;
* the revealed APK that comes back over the wire is **byte-identical**
  to an in-process ``BatchRevealService.reveal_one`` of the same APK;
* the content-addressed artifact fetched from ``/v1/artifacts/<digest>``
  matches those bytes (and its digest re-hashes correctly);
* both workers stayed fenced: every job ran exactly once.

Exit status follows the service CLI contract: 0 on success, 1 when a
job failed or a diff mismatched.  Run via ``make gateway-smoke``.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
import threading

from repro.service import (
    ARTIFACT_REVEALED_APK,
    STATUS_OK,
    BatchRevealService,
    GatewayClient,
    JobStore,
    RevealGateway,
    RevealWorker,
    artifact_digest,
)
from repro.service.cli import build_corpus_jobs
from repro.service.cli_contract import EXIT_OK, failure


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=2,
                        help="corpus apps to push through (default: 2)")
    parser.add_argument("--fleet", type=int, default=2,
                        help="worker processes to race (default: 2)")
    parser.add_argument("--corpus", default="fdroid",
                        help="benchsuite corpus to draw from")
    args = parser.parse_args(argv)

    jobs = build_corpus_jobs(args.corpus, args.jobs)
    tmpdir = tempfile.mkdtemp(prefix="gateway-smoke-")
    try:
        store = JobStore(f"{tmpdir}/store")
        with RevealGateway(store) as gateway:
            print(f"gateway-smoke: serving {gateway.url}")
            client = GatewayClient(gateway.url, poll_interval_s=0.1)
            handles = client.submit_many(jobs)
            print(f"gateway-smoke: submitted {len(handles)} job(s) "
                  f"over HTTP")

            workers = [
                RevealWorker(store, worker_id=f"smoke-w{i}",
                             poll_interval_s=0.05)
                for i in range(args.fleet)
            ]
            threads = [
                threading.Thread(
                    target=worker.run,
                    kwargs={"max_jobs": len(jobs), "linger_s": 5.0})
                for worker in workers
            ]
            for thread in threads:
                thread.start()
            outcomes = client.await_many(handles, timeout=300)
            for thread in threads:
                thread.join()

            if len(outcomes) != len(jobs):
                return failure(f"gateway-smoke: {len(outcomes)}/"
                               f"{len(jobs)} outcomes arrived")
            local = BatchRevealService(workers=1)
            seen_workers = set()
            for job, handle, outcome in zip(jobs, handles, outcomes):
                if outcome.status != STATUS_OK:
                    return failure(f"gateway-smoke: {job.app_id} "
                                   f"finished {outcome.status}: "
                                   f"{outcome.error}")
                remote = outcome.revealed_apk.to_bytes()
                reference = local.reveal_one(job)
                if remote != reference.revealed_apk.to_bytes():
                    return failure(f"gateway-smoke: {job.app_id} HTTP "
                                   f"reveal differs from in-process")
                digest = client.job(handle.job_id)["artifacts"][
                    ARTIFACT_REVEALED_APK]
                fetched = client.fetch_artifact(digest)
                if fetched != remote or artifact_digest(fetched) != digest:
                    return failure(f"gateway-smoke: {job.app_id} "
                                   f"artifact bytes diverge")
                record = store.load(handle.job_id)
                if record["attempts"] != 1:
                    return failure(f"gateway-smoke: {job.app_id} ran "
                                   f"{record['attempts']} times")
                seen_workers.add(record["worker_id"])
                print(f"gateway-smoke: {job.app_id} byte-identical "
                      f"(worker {record['worker_id']}, "
                      f"{len(remote)} bytes)")
            print(f"gateway-smoke: {len(outcomes)} job(s) done across "
                  f"{len(seen_workers)} worker(s), all byte-identical")
        return EXIT_OK
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
