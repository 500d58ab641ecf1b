"""The per-writer segment log under the corpus index and cluster store.

On-disk layout, under the store's root directory:

* ``<meta file>`` — ``{"version": N}``; foreign versions and unreadable
  files are refused with a one-line ``ValueError`` (the archive/job-store
  guard pattern).
* ``segments/seg-<writer>.jsonl`` — append-only row journal.  Every open
  log appends to its *own* segment (a fresh writer id per open), so any
  number of threads, processes or hosts sharing the directory never
  contend on a file; an open merges all segments.  A line that is not a
  row this build writes — torn, foreign-version, a field of the wrong
  type, or a ``fuzzy`` that does not parse as a digest — is skipped and
  counted in :attr:`SegmentLog.corrupt_lines`, so a crashed writer costs
  at most its final line.

Rows are frozen dataclasses with a ``key()`` and a ``to_dict()`` (their
fields plus ``"v"``, the line written): ``kind``, ``app_id`` and
``class_desc`` are required strings, every other field is a string or
null.  The log holds the rows in memory, deduplicated by key, in the
order it first read or appended them, and hands each one to the owning
store's ``on_row`` as it does, so the store's lookup maps always cover
exactly the rows held.  Not thread-safe on its own: the stores call it
under their own locks.
"""

from __future__ import annotations

import json
import logging
import os
import uuid
from dataclasses import fields
from typing import Callable

from repro import faults

_SEGMENTS_DIR = "segments"

#: Row fields that must be strings; every other field is a string or
#: null, and absent means null.
_REQUIRED_FIELDS = ("kind", "app_id", "class_desc")

logger = logging.getLogger(__name__)


class SegmentLog:
    """A versioned directory of per-writer JSONL row segments.

    ``store`` names the owner in error messages, ``site`` prefixes its
    fault sites (``<site>.segment.append``, ``<site>.compact``), ``row``
    is the row dataclass and ``on_row`` the owner's hook for each row
    the log comes to hold.
    """

    def __init__(self, root: str | os.PathLike, *, store: str,
                 meta_file: str, version: int, site: str, row: type,
                 on_row: Callable[[object], None],
                 create: bool = True) -> None:
        self.root = os.fspath(root)
        self.segments_dir = os.path.join(self.root, _SEGMENTS_DIR)
        self._store = store
        self._version = version
        self._row = row
        self._on_row = on_row
        self._fields = tuple(f.name for f in fields(row))
        self._append_site = f"{site}.segment.append"
        self._compact_site = f"{site}.compact"
        self.rows: list = []
        self._keys: set[tuple] = set()
        self.corrupt_lines = 0
        self.writer_id = uuid.uuid4().hex[:12]
        self._handle = None
        self._torn = False  # the segment may end in a torn fragment
        self._open(meta_file, create)

    # -- open / meta --------------------------------------------------------

    def _open(self, meta_file: str, create: bool) -> None:
        meta_path = os.path.join(self.root, meta_file)
        if not os.path.isfile(meta_path):
            if not create:
                raise FileNotFoundError(
                    f"no {self._store} at {self.root!r} (missing {meta_file})"
                )
            os.makedirs(self.segments_dir, exist_ok=True)
            # Per-writer tmp name: two processes creating the same
            # fresh store must not move each other's tmp file away.
            tmp = f"{meta_path}.{self.writer_id}.tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump({"version": self._version}, fh)
            os.replace(tmp, meta_path)
            return
        try:
            with open(meta_path, encoding="utf-8") as fh:
                meta = json.load(fh)
        except ValueError as exc:
            raise ValueError(
                f"{self._store} at {self.root!r} has an unreadable "
                f"{meta_file}: {exc}"
            ) from exc
        version = meta.get("version") if isinstance(meta, dict) else None
        if version != self._version:
            raise ValueError(
                f"{self._store} at {self.root!r} has format version "
                f"{version!r}; this build supports {self._version}"
            )
        os.makedirs(self.segments_dir, exist_ok=True)
        self.corrupt_lines += self._read(self._segment_names())

    def _segment_names(self) -> list[str]:
        return sorted(name for name in os.listdir(self.segments_dir)
                      if name.endswith(".jsonl"))

    def _read(self, names) -> int:
        """Hold every row of the named segments; returns how many lines
        (or unreadable segments) were corrupt."""
        corrupt = 0
        for name in names:
            try:
                with open(os.path.join(self.segments_dir, name), "rb") as fh:
                    for line in fh:
                        line = line.strip()
                        if not line:
                            continue
                        try:
                            data = json.loads(line)
                            self._check(data)
                        except ValueError:
                            corrupt += 1
                            continue
                        self._hold(self._row(**{key: data.get(key)
                                               for key in self._fields}))
            except OSError:
                corrupt += 1
        return corrupt

    def _check(self, data) -> None:
        """``ValueError`` unless ``data`` is a row as this build writes
        it."""
        if not isinstance(data, dict) or data.get("v") != self._version:
            raise ValueError(f"not a version-{self._version} row")
        for name in self._fields:
            value = data.get(name)
            if not (isinstance(value, str) or value is None
                    and name not in _REQUIRED_FIELDS):
                raise ValueError(f"row field {name!r} is "
                                 f"{type(value).__name__}, not a string")
        if data.get("fuzzy") is not None:
            # Imported here: repro.index imports this module.
            from repro.index.fuzzy import parse_digest
            parse_digest(data["fuzzy"])

    def _hold(self, row) -> bool:
        key = row.key()
        if key in self._keys:
            return False
        self._keys.add(key)
        self.rows.append(row)
        self._on_row(row)
        return True

    # -- writes -------------------------------------------------------------

    def _segment(self):
        handle = self._handle
        if handle is not None and os.fstat(handle.fileno()).st_nlink == 0:
            # A compaction folded and unlinked this segment; rows
            # appended to the orphan would never be read again.
            handle.close()
            handle = None
        if handle is None:
            path = os.path.join(self.segments_dir,
                                f"seg-{self.writer_id}.jsonl")
            handle = self._handle = open(path, "a", encoding="utf-8")
        return handle

    def append(self, row) -> bool:
        """Journal ``row``, then hold it; False when already held.

        A row that is not one this build writes raises ``ValueError``
        before anything is journaled.  A failed write leaves nothing in
        memory, so a retry journals the row; the next write starts on a
        fresh line, so the torn fragment costs one corrupt line.
        """
        if row.key() in self._keys:
            return False
        data = row.to_dict()
        self._check(data)
        line = json.dumps(data, sort_keys=True) + "\n"
        if self._torn:
            line = "\n" + line
        handle = self._segment()
        self._torn = True  # until the whole line is flushed
        faults.append_line(handle, line, site=self._append_site)
        handle.flush()
        self._torn = False
        return self._hold(row)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- maintenance --------------------------------------------------------

    def segment_count(self) -> int:
        try:
            return len(self._segment_names())
        except OSError:
            return 0

    def compact(self) -> int:
        """Fold every segment into one, atomically; returns the row count.

        Every segment is re-read first, so rows other live writers
        appended since this log opened are held and folded in too; a
        writer whose segment was unlinked reopens it before its next
        append.  The merged segment is written to a temp file and
        renamed into place before the old segments are removed, so a
        reader opening mid-compaction sees either layout, never
        neither.  One gap remains: a row another live writer appends
        between this re-read and the unlink of its segment is lost.

        The merged segment holds its lines sorted, so the same rows
        compact to the same bytes whichever writers journalled them
        (the open merges segments in the order of their random
        writer-id names).
        """
        self.close()
        old = self._segment_names()
        self._read(old)  # corrupt_lines counts what the open saw
        merged = f"seg-compact-{uuid.uuid4().hex[:12]}.jsonl"
        lines = sorted(json.dumps(row.to_dict(), sort_keys=True)
                       for row in self.rows)
        faults.atomic_write_text(
            os.path.join(self.segments_dir, merged),
            "".join(line + "\n" for line in lines),
            site=self._compact_site)
        for name in old:
            try:
                os.unlink(os.path.join(self.segments_dir, name))
            except OSError:
                logger.warning("compact: could not remove segment %s", name)
        return len(self.rows)
