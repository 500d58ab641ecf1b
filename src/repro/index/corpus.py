"""Persistent, shardable corpus index: digest → (app, class, method).

On-disk layout (all JSON, human-greppable):

* ``index_meta.json`` and ``segments/seg-<writer>.jsonl`` — the
  versioned, per-writer entry journal of
  :class:`~repro.segment_log.SegmentLog` (one segment per open index,
  merged at open; corrupt lines skipped and counted in :meth:`stats`;
  :meth:`compact` folds them into one, atomically).
* ``bodies/<exact-digest>.json`` — recorded body op lists
  (:mod:`repro.core.body_cache`), written atomically, first writer
  wins (contents are digest-determined, so writers agree by
  construction).
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import asdict, dataclass

from repro import faults
from repro.core.body_cache import (
    BODY_OPS_VERSION,
    document_digest,
    method_document,
)
from repro.index.digests import (
    MethodDigests,
    class_fuzzy_digest,
    document_digests,
)
from repro.index.fuzzy import fuzzy_distance
from repro.segment_log import SegmentLog

INDEX_FORMAT_VERSION = 1

_META_FILE = "index_meta.json"
_BODIES_DIR = "bodies"
_UNSEEN = object()


@dataclass(frozen=True)
class IndexEntry:
    """One indexed artefact: a revealed method or a whole class."""

    kind: str                 # "method" | "class"
    app_id: str
    class_desc: str
    method: str | None        # full signature for methods, None for classes
    exact: str | None         # exact body digest (methods only)
    norm: str | None          # structural digest (methods only)
    fuzzy: str | None         # TLSH-style digest, None when too small
    artifact: str | None = None  # reveal artifact ref (e.g. archive dir)

    def key(self) -> tuple:
        return (self.kind, self.app_id, self.class_desc, self.method,
                self.exact)

    def to_dict(self) -> dict:
        data = asdict(self)
        data["v"] = INDEX_FORMAT_VERSION
        return data


class CorpusIndex:
    """Digest-keyed corpus map plus the reassembler's body store.

    Thread-safe; multi-process safe through per-writer segments and
    atomic body writes.  Instances opened concurrently see each other's
    entries only as of their open (or last :meth:`compact`) —
    acceptable, because replaying a body and re-emitting it produce
    byte-identical output, so index visibility affects savings, never
    results.
    """

    def __init__(self, root: str | os.PathLike, create: bool = True) -> None:
        self.root = os.fspath(root)
        self.bodies_dir = os.path.join(self.root, _BODIES_DIR)
        self._lock = threading.Lock()
        self._by_exact: dict[str, list[IndexEntry]] = {}
        self._by_norm: dict[str, list[IndexEntry]] = {}
        self._body_memo: dict[str, list] = {}
        #: The digests this index computed, kept for its lifetime.  Norm,
        #: fuzzy and stream are functions of the exact digest, and a
        #: class digest of its members' exact digests in signature
        #: order, so the keys fix the values.  No cap: there is one
        #: entry per distinct body or member set, fewer than the rows
        #: the log holds.  Never filled from rows read from disk:
        #: another build may have written those, and they lack the
        #: streams.
        self._method_digests: dict[str, MethodDigests] = {}
        self._class_digests: dict[tuple[str, ...], str | None] = {}
        self._lsh = None
        self._log = SegmentLog(
            self.root, store="corpus index", meta_file=_META_FILE,
            version=INDEX_FORMAT_VERSION, site="index", row=IndexEntry,
            on_row=self._absorb, create=create)
        os.makedirs(self.bodies_dir, exist_ok=True)

    @property
    def corrupt_lines(self) -> int:
        return self._log.corrupt_lines

    def _absorb(self, entry: IndexEntry) -> None:
        """File a newly held entry under its digests."""
        if entry.exact:
            self._by_exact.setdefault(entry.exact, []).append(entry)
        if entry.norm:
            self._by_norm.setdefault(entry.norm, []).append(entry)
        if entry.fuzzy and self._lsh is not None:
            self._lsh.add(entry.fuzzy, entry, sort_key=entry.key())

    def attach_lsh(self, lsh=None):
        """Accelerate :meth:`nearest` with a banded LSH structure.

        Backfills ``lsh`` (a fresh
        :class:`~repro.cluster.lsh.LshIndex` when omitted) with every
        fuzzy-bearing entry already held, and feeds it on every later
        absorb.  Result shapes and ordering do not change — the LSH
        rescores its candidates with the exact distance and falls back
        to the full scan when buckets are sparse.
        """
        if lsh is None:
            from repro.cluster.lsh import LshIndex
            lsh = LshIndex()
        with self._lock:
            for entry in self._log.rows:
                if entry.fuzzy:
                    lsh.add(entry.fuzzy, entry, sort_key=entry.key())
            self._lsh = lsh
        return lsh

    # -- writes -------------------------------------------------------------

    def add_entry(self, entry: IndexEntry) -> bool:
        """Journal + absorb one entry; False when already present."""
        with self._lock:
            return self._log.append(entry)

    def close(self) -> None:
        with self._lock:
            self._log.close()

    # -- body store (the reassembler's get_body/put_body duck type) ---------

    def _body_path(self, digest: str) -> str:
        return os.path.join(self.bodies_dir, f"{digest}.json")

    def get_body(self, digest: str) -> list | None:
        with self._lock:
            memo = self._body_memo.get(digest)
        if memo is not None:
            return memo
        try:
            with open(self._body_path(digest), encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            return None
        if not isinstance(doc, dict) or doc.get("version") != BODY_OPS_VERSION:
            return None
        ops = doc.get("ops")
        if not isinstance(ops, list):
            return None
        with self._lock:
            self._body_memo.setdefault(digest, ops)
        return ops

    def put_body(self, digest: str, ops: list) -> None:
        with self._lock:
            self._body_memo.setdefault(digest, ops)
        path = self._body_path(digest)
        if os.path.exists(path):
            return  # first writer won; contents are digest-determined
        # Threads share this instance (and its writer id), so the tmp
        # name is per thread too: two jobs writing one digest at once
        # must not move each other's tmp file away.
        faults.atomic_write_json(
            path, {"version": BODY_OPS_VERSION, "ops": ops},
            site="index.body.write",
            tmp=f"{path}.{self._log.writer_id}.{threading.get_ident()}.tmp")

    # -- digests (memoised by exact digest) ---------------------------------

    def reveal_digests(self, records) -> dict[str, MethodDigests]:
        """:func:`~repro.index.digests.reveal_digests` through this
        index's memo: each record's document is built and hashed, and
        its tokens walked only when no earlier reveal produced its exact
        digest."""
        result: dict[str, MethodDigests] = {}
        for record in records:
            doc = method_document(record)
            exact = document_digest(doc)
            with self._lock:
                digests = self._method_digests.get(exact)
            if digests is None:
                fresh = document_digests(doc, exact)
                with self._lock:
                    digests = self._method_digests.setdefault(exact, fresh)
            result[record.signature] = digests
        return result

    def class_fuzzy_digest(self, records,
                           digests: dict[str, MethodDigests]) -> str | None:
        """:func:`~repro.index.digests.class_fuzzy_digest` through this
        index's memo, keyed by the members' exact digests in signature
        order."""
        key = tuple(digests[signature].exact for signature in
                    sorted(record.signature for record in records))
        with self._lock:
            fuzzy = self._class_digests.get(key, _UNSEEN)
        if fuzzy is _UNSEEN:
            fresh = class_fuzzy_digest(records, digests)
            with self._lock:
                fuzzy = self._class_digests.setdefault(key, fresh)
        return fuzzy

    # -- registration (pipeline integration) --------------------------------

    def register_method(self, record, digests: MethodDigests, app_id: str,
                        artifact: str | None = None) -> bool:
        return self.add_entry(IndexEntry(
            kind="method",
            app_id=app_id,
            class_desc=record.class_desc,
            method=record.signature,
            exact=digests.exact,
            norm=digests.norm,
            fuzzy=digests.fuzzy,
            artifact=artifact,
        ))

    def register_class(self, class_desc: str, fuzzy: str | None,
                       app_id: str, artifact: str | None = None) -> bool:
        return self.add_entry(IndexEntry(
            kind="class",
            app_id=app_id,
            class_desc=class_desc,
            method=None,
            exact=None,
            norm=None,
            fuzzy=fuzzy,
            artifact=artifact,
        ))

    def register_reassembly(self, store, reassembler, app_id: str | None,
                            digests: dict[str, MethodDigests],
                            artifact: str | None = None) -> dict:
        """Index every executed method of one reveal; return savings stats.

        ``digests`` is the reveal's :meth:`reveal_digests` map; class
        digests come through this index's memo.
        ``corpus_known`` counts methods whose exact digest the index
        already held (from any app) before this registration —
        the cross-app overlap this reveal could lean on.
        """
        app = app_id or "<unknown-app>"
        known = new = 0
        by_class: dict[str, list] = {}
        for record in store.executed_records():
            method = digests[record.signature]
            if self.lookup_exact(method.exact):
                known += 1
            else:
                new += 1
            self.register_method(record, method, app, artifact=artifact)
            by_class.setdefault(record.class_desc, []).append(record)
        for class_desc in sorted(by_class):
            self.register_class(
                class_desc,
                self.class_fuzzy_digest(by_class[class_desc], digests),
                app, artifact=artifact,
            )
        return {
            "bodies_emitted": reassembler.bodies_emitted,
            "bodies_replayed": reassembler.bodies_replayed,
            "corpus_known": known,
            "corpus_new": new,
        }

    def probe_method_store(self, store,
                           digests: dict[str, MethodDigests]) -> dict:
        """Pre-reassembly probe: how much of this store the corpus knows,
        by the reveal's :meth:`reveal_digests` map."""
        executed = store.executed_records()
        known = sum(
            1 for record in executed
            if self.lookup_exact(digests[record.signature].exact)
        )
        return {
            "index_known_methods": known,
            "index_executed_methods": len(executed),
        }

    # -- queries ------------------------------------------------------------

    def lookup_exact(self, digest: str) -> list[IndexEntry]:
        with self._lock:
            return list(self._by_exact.get(digest, ()))

    def lookup_norm(self, digest: str) -> list[IndexEntry]:
        with self._lock:
            return list(self._by_norm.get(digest, ()))

    def lookup_signature(self, signature: str) -> list[IndexEntry]:
        """Every (app, digest) sighting of one method signature."""
        with self._lock:
            return [e for e in self._log.rows
                    if e.kind == "method" and e.method == signature]

    def apps_with_norm(self, digest: str) -> list[str]:
        """'Which apps contain this method?' — by structural digest."""
        return sorted({entry.app_id for entry in self.lookup_norm(digest)})

    def nearest(self, fuzzy: str, limit: int = 5, kind: str | None = None,
                exhaustive: bool = False) -> list[tuple[int, IndexEntry]]:
        """Nearest neighbours of a fuzzy digest.

        Routed through the banded LSH when one is attached
        (:meth:`attach_lsh`); ``exhaustive=True`` — or no attached
        LSH — is the exact linear-scan oracle.  Both paths score with
        the same :func:`~repro.index.fuzzy.fuzzy_distance` and order by
        ``(distance, entry key)``, so they agree wherever they overlap.
        """
        with self._lock:
            lsh = self._lsh
            if lsh is not None and not exhaustive:
                if kind is None:
                    return lsh.nearest(fuzzy, limit=limit)
                return lsh.nearest(fuzzy, limit=limit,
                                   accept=lambda entry: entry.kind == kind)
            candidates = [e for e in self._log.rows if e.fuzzy
                          and (kind is None or e.kind == kind)]
        scored = [(fuzzy_distance(fuzzy, entry.fuzzy), entry)
                  for entry in candidates]
        scored.sort(key=lambda pair: (pair[0], pair[1].key()))
        return scored[:limit]

    def entries(self) -> list[IndexEntry]:
        with self._lock:
            return list(self._log.rows)

    def stats(self) -> dict:
        with self._lock:
            entries = self._log.rows
            methods = [e for e in entries if e.kind == "method"]
            classes = [e for e in entries if e.kind == "class"]
            apps = {e.app_id for e in entries}
            exact = len(self._by_exact)
            norm = len(self._by_norm)
            corrupt = self._log.corrupt_lines
        try:
            bodies = sum(1 for name in os.listdir(self.bodies_dir)
                         if name.endswith(".json"))
        except OSError:
            bodies = 0
        return {
            "version": INDEX_FORMAT_VERSION,
            "methods": len(methods),
            "classes": len(classes),
            "apps": len(apps),
            "exact_digests": exact,
            "norm_digests": norm,
            "bodies": bodies,
            "segments": self._log.segment_count(),
            "corrupt_lines": corrupt,
        }

    # -- maintenance --------------------------------------------------------

    def compact(self) -> int:
        """Fold every segment into one, atomically (see
        :meth:`SegmentLog.compact`), and delete each body temp file
        whose body is published; returns entry count.

        A torn write leaves ``<digest>.json.<writer>.<thread>.tmp``
        behind.  Once ``<digest>.json`` exists the temp file is debris:
        the digest fixes the body's contents, and :meth:`put_body`
        writes no temp file for a published body.
        """
        with self._lock:
            count = self._log.compact()
        for name in os.listdir(self.bodies_dir):
            digest, sep, _rest = name.partition(".json.")
            if sep and name.endswith(".tmp") and os.path.exists(
                    self._body_path(digest)):
                try:
                    os.remove(os.path.join(self.bodies_dir, name))
                except FileNotFoundError:
                    pass  # another compaction swept it first
        return count
