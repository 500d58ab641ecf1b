"""Content-addressed result cache for revealed applications.

Re-running a corpus is the common case — a new pipeline version, a new
downstream analysis, a crashed batch resumed — and reveal latency is
dominated by driving the app inside the instrumented runtime.  The cache
makes the second run nearly free: a record is keyed on *what was
analysed* (the APK's DEX payload) and *how* (the pipeline
configuration), so any byte-level change to either misses cleanly.

Key construction
----------------

``reveal_cache_key`` = SHA-256 over:

* the manifest: package, main activity, activities and version (the
  launch drives the main activity),
* each DEX file's serialised bytes (which embed the header's Adler-32
  checksum and SHA-1 signature, so this is "the APK dex checksum" in
  the strongest sense),
* the asset blobs and named native libraries (packers hide encrypted
  payloads in assets; two packed stubs can share identical DEX loaders),
* :meth:`RevealConfig.config_hash()
  <repro.core.config.RevealConfig.config_hash>` — the *sole*
  configuration input,
* an optional caller-supplied salt (used by jobs with custom drive
  callables, whose identity the cache cannot observe).

Backends
--------

:class:`RevealCache` stores records in memory by default, or under a
directory when constructed with ``directory=...``: each record is one
``<key>.json`` metadata file plus an optional ``<key>.apk`` sidecar with
the serialised revealed application.  The on-disk format is versioned;
unreadable or stale entries are treated as misses, never as errors.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
from typing import Callable

from repro import faults
from repro.core.config import RevealConfig
from repro.dex.writer import write_dex
from repro.runtime.apk import Apk
from repro.service.outcomes import CACHEABLE_STATUSES, RevealOutcome

CACHE_FORMAT_VERSION = 1

#: Keys every well-formed cache record carries; an on-disk entry missing
#: any of them (or that is not a JSON object at all) is corrupt.
REQUIRED_RECORD_KEYS = frozenset({"version", "app_id", "status"})

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Key construction
# ---------------------------------------------------------------------------


#: Writing a DEX canonicalizes its pools in place, so two threads must
#: not write one :class:`~repro.dex.structures.DexFile` at once (one
#: APK object queued twice).
_WRITE_LOCK = threading.Lock()


def apk_content_key(apk: Apk) -> str:
    """SHA-256 over the APK's content: the manifest, each DEX, the
    assets and the JNI libraries.  Writing a DEX canonicalizes its
    pools in place."""
    digest = hashlib.sha256()
    # The launch drives main_activity; the revealed APK carries them all.
    manifest = json.dumps([apk.package, apk.main_activity, apk.activities,
                           apk.version])
    digest.update(manifest.encode("utf-8"))
    with _WRITE_LOCK:
        payloads = [write_dex(dex) for dex in apk.dex_files]
    for payload in payloads:
        digest.update(len(payload).to_bytes(8, "little"))
        digest.update(payload)
    for path in sorted(apk.assets):
        data = apk.assets[path]
        digest.update(path.encode("utf-8"))
        digest.update(len(data).to_bytes(8, "little"))
        digest.update(data)
    for name in apk.native_libraries:
        digest.update(b"jni:" + name.encode("utf-8"))
    return digest.hexdigest()


def reveal_cache_key(apk: Apk, config: RevealConfig, salt: str = "") -> str:
    """Content-addressed key: APK content × ``config_hash()`` × salt."""
    digest = hashlib.sha256()
    digest.update(apk_content_key(apk).encode("ascii"))
    digest.update(config.config_hash().encode("ascii"))
    if salt:
        digest.update(salt.encode("utf-8"))
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Cache backends
# ---------------------------------------------------------------------------


class RevealCache:
    """Keyed store of :class:`RevealOutcome` records.

    In-memory when ``directory`` is ``None`` (the default — scoped to the
    service instance), on-disk otherwise (shared across runs and
    processes).  Only deterministic statuses (:data:`CACHEABLE_STATUSES`)
    are admitted; everything else is silently skipped so transient
    failures are retried on the next run.
    """

    def __init__(self, directory: str | None = None) -> None:
        self.directory = directory
        self._memory: dict[str, dict] = {}
        # The in-memory store is mutated from thread-pool workers
        # (reveal_batch, the reveal server); every read/write of
        # ``_memory`` happens under this lock.
        self._lock = threading.Lock()
        # key -> Event set when the in-flight computation for that key
        # finishes (see get_or_compute).
        self._inflight: dict[str, threading.Event] = {}
        # Corrupt on-disk entries are misses; warn about the first one
        # only, so a directory full of damage doesn't flood the log —
        # but count every one, so a sweep can report what was skipped.
        self.corrupt_entries = 0
        #: Failed disk stores (cache writes degrade, they never fail a
        #: reveal); the first one logs a warning.
        self.write_failures = 0
        if directory is not None:
            os.makedirs(directory, exist_ok=True)

    # -- write --------------------------------------------------------------

    def put(self, key: str, outcome: RevealOutcome) -> bool:
        """Store one outcome; returns True when admitted."""
        if outcome.status not in CACHEABLE_STATUSES:
            return False
        apk_bytes = outcome.revealed_apk_bytes
        if apk_bytes is None and outcome.result is not None:
            revealed = outcome.result.revealed_apk
            apk_bytes = revealed.to_bytes() if revealed is not None else None
        record = {
            "version": CACHE_FORMAT_VERSION,
            "app_id": outcome.app_id,
            "status": outcome.status,
            "latency_s": outcome.latency_s,
            "dump_size_bytes": outcome.dump_size_bytes,
            # Copied so the memory backend never aliases live outcome
            # dicts (the disk backend is isolated by the JSON trip).
            "collector_stats": dict(outcome.collector_stats),
            "error": outcome.error,
            "stage_timings": dict(outcome.stage_timings),
            "exploration": dict(outcome.exploration),
            "index_stats": dict(outcome.index_stats),
        }
        if self.directory is None:
            record["apk_bytes"] = apk_bytes
            with self._lock:
                self._memory[key] = record
            return True
        try:
            if apk_bytes is not None:
                # The sidecar lands first and the metadata write is
                # atomic, so a crash between the two leaves an orphan
                # .apk (ignored by every read path), never a record
                # pointing at nothing.
                faults.atomic_write_bytes(self._apk_path(key), apk_bytes,
                                          site="cache.write")
                record["has_apk"] = True
            faults.atomic_write_json(self._json_path(key), record,
                                     site="cache.write")
        except OSError:
            # The cache is an optional subsystem: a failed store costs
            # a future recompute, never this reveal.
            self.write_failures += 1
            if self.write_failures == 1:
                logger.warning(
                    "reveal cache write failed for %s; continuing "
                    "uncached", key)
            if "cache" not in outcome.degraded:
                outcome.degraded.append("cache")
            return False
        return True

    # -- read ---------------------------------------------------------------

    def get(self, key: str) -> RevealOutcome | None:
        """Look up one record; any malformed entry is a miss."""
        record = self._load(key)
        if record is None or record.get("version") != CACHE_FORMAT_VERSION:
            return None
        return RevealOutcome(
            app_id=record["app_id"],
            status=record["status"],
            cache_hit=True,
            latency_s=record.get("latency_s", 0.0),
            dump_size_bytes=record.get("dump_size_bytes", 0),
            collector_stats=dict(record.get("collector_stats", {})),
            error=record.get("error", ""),
            cache_key=key,
            revealed_apk_bytes=record.get("apk_bytes"),
            stage_timings=dict(record.get("stage_timings", {})),
            exploration=dict(record.get("exploration", {})),
            index_stats=dict(record.get("index_stats", {})),
        )

    def __contains__(self, key: str) -> bool:
        return self._load(key) is not None

    def __len__(self) -> int:
        if self.directory is None:
            with self._lock:
                return len(self._memory)
        return sum(1 for name in os.listdir(self.directory)
                   if name.endswith(".json"))

    def get_or_compute(
        self,
        key: str,
        compute: Callable[[], RevealOutcome],
    ) -> tuple[RevealOutcome, bool]:
        """One reveal per key under concurrency: ``(outcome, hit)``.

        A miss elects the calling thread *leader* for the key: it runs
        ``compute()``, stores the result (subject to the usual
        :data:`CACHEABLE_STATUSES` admission) and releases the key.
        Concurrent callers with the same key block until the leader
        finishes, then re-check the cache — a hit if the leader's
        outcome was admitted, otherwise they recompute themselves (a
        transient ``error`` must not be replicated to every waiter).
        An empty key (uncacheable job) computes directly.
        """
        if not key:
            return compute(), False
        while True:
            cached = self.get(key)
            if cached is not None:
                return cached, True
            with self._lock:
                waiter = self._inflight.get(key)
                if waiter is None:
                    self._inflight[key] = threading.Event()
                    break
            waiter.wait()
        try:
            # Leadership won — but a previous leader may have finished
            # (stored and released the key) between this thread's cache
            # probe and the lock; re-check before paying for a reveal.
            cached = self.get(key)
            if cached is not None:
                return cached, True
            outcome = compute()
            self.put(key, outcome)
            return outcome, False
        finally:
            with self._lock:
                event = self._inflight.pop(key, None)
            if event is not None:
                event.set()

    def _load(self, key: str) -> dict | None:
        if self.directory is None:
            with self._lock:
                return self._memory.get(key)
        try:
            faults.check("cache.read")
            with open(self._json_path(key), encoding="utf-8") as fh:
                record = json.load(fh)
        except OSError:
            return None  # absent entry (or unreadable disk): a miss
        except ValueError:
            # Truncated write, disk damage, editor mishap — a corrupt
            # entry must read as a miss, never crash the batch.
            self._note_corrupt(key)
            return None
        if not isinstance(record, dict) \
                or not REQUIRED_RECORD_KEYS <= record.keys():
            self._note_corrupt(key)
            return None
        if record.get("has_apk"):
            try:
                with open(self._apk_path(key), "rb") as fh:
                    record["apk_bytes"] = fh.read()
            except OSError:
                return None
        return record

    def _note_corrupt(self, key: str) -> None:
        self.corrupt_entries += 1
        if self.corrupt_entries > 1:
            return
        logger.warning(
            "reveal cache entry %s is corrupt; treating it (and any "
            "further corrupt entries) as misses", self._json_path(key)
        )

    def _json_path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def _apk_path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.apk")
