"""Collection files: the on-disk format of Figure 2's intermediate.

The paper's modified ART writes five kinds of files during execution —
class data, field data, method data, static values and bytecode — which
the offline reassembler later combines.  In process the stages hand
over the collector: :class:`CollectionArchive` holds it and renders the
files from :meth:`~repro.core.collector.DexLegoCollector.rows` once,
when the archive is saved or zipped.  Their size (Table VI) is the
length of that render, counted from the collector without rendering.
:meth:`CollectionArchive.load` parses them once, into a collector, and
refuses a file that is not the JSON a collector writes with one
``ValueError`` naming it.
"""

from __future__ import annotations

import json
import os

from repro import faults
from repro.core.collector import (
    ALL_FILES,
    BYTECODE_FILE,
    CLASS_DATA_FILE,
    FIELD_DATA_FILE,
    METHOD_DATA_FILE,
    REFLECTION_FILE,
    STATIC_VALUES_FILE,
    DexLegoCollector,
)
from repro.core.tree import trees_rendered_size
from repro.jsonshape import NULL, check_shape

#: The one file an archive may carry but reassembly does not require:
#: the force-execution frontier snapshot (scheduler state,
#: covered-outcome map, counters) that lets a resumed run continue an
#: interrupted exploration instead of restarting.
EXPLORATION_STATE_FILE = "exploration_state.json"

#: Exploration-state format versions this build can hydrate.  Checked
#: on load: a frontier written by a different format must fail with
#: one clear line *before* any exploration state is rebuilt from it,
#: not corrupt a resumed run.
SUPPORTED_EXPLORATION_STATE_VERSIONS = (1,)

#: What each file holds, as :func:`~repro.jsonshape.check_shape` reads it.
_STATIC_VALUE = [(str, bool, int, float, NULL)]
_TRY = {"start": int, "count": int, "handlers": [[str, int]],
        "catch_all": (int, NULL)}
_NODE = {"sm_start": int, "sm_end": int,
         "il": [{"dex_pc": int, "units": [int], "payload?": [int],
                 "symbol?": str}]}
_NODE["children"] = [_NODE]

_SHAPES = {
    CLASS_DATA_FILE: [{"descriptor": str, "superclass": (str, NULL),
                       "interfaces": [str], "access": int,
                       "initialized": bool, "methods": [str]}],
    FIELD_DATA_FILE: [{"class": str, "name": str, "type": str,
                       "access": int, "value": _STATIC_VALUE}],
    METHOD_DATA_FILE: [{"signature": str, "class": str, "name": str,
                        "params": [str], "return": str, "access": int,
                        "native": bool, "registers": int, "ins": int,
                        "outs": int, "tries": [_TRY]}],
    STATIC_VALUES_FILE: [{"class": str, "field": str,
                          "value": _STATIC_VALUE}],
    BYTECODE_FILE: [{"method": str, "registers_size": int, "ins_size": int,
                     "outs_size": int, "root": _NODE}],
    REFLECTION_FILE: [{"caller": str, "dex_pc": int,
                       "targets": [{"signature": str, "static": bool}]}],
    # Checked after its format version (see _parse).
    EXPLORATION_STATE_FILE: {"scheduler": dict, "outcomes?": list,
                             "traces?": list, "site_traces?": list,
                             "report?": dict,
                             "apk_main_activity?": (str, NULL)},
}


# -- sizes of the indent=1 render, without rendering ----------------------


def _added_whitespace(container, level: int) -> int:
    """What ``indent=1`` adds to the compact render of a list, tuple or
    dict opening on a line indented ``level`` spaces: a newline and the
    indentation before every item and before the closing bracket, and a
    space after every key's colon."""
    if not container:
        return 0
    if isinstance(container, dict):
        items = container.values()
        added = len(container) * (level + 3) + level + 1
    else:
        items = container
        added = len(container) * (level + 2) + level + 1
    for item in items:
        if isinstance(item, (dict, list, tuple)):
            added += _added_whitespace(item, level + 1)
    return added


def _rendered_size(rows: list) -> int:
    """``len(json.dumps(rows, indent=1))``: the C encoder's compact
    render (ASCII, so characters are bytes) plus the whitespace
    ``indent=1`` adds."""
    return (len(json.dumps(rows, separators=(",", ":")))
            + _added_whitespace(rows, 0))


def _parse(name: str, data: str | bytes):
    """One file's content (text, or UTF-8 bytes as read from disk) as
    the JSON value a collector writes; one ``ValueError`` naming the
    file otherwise."""
    try:
        value = json.loads(data.decode("utf-8") if isinstance(data, bytes)
                           else data)
        if name == EXPLORATION_STATE_FILE:
            # A foreign format version says so before any shape check.
            check_shape(value, dict)
            if value.get("version") not in \
                    SUPPORTED_EXPLORATION_STATE_VERSIONS:
                raise ValueError(
                    f"unsupported exploration state version "
                    f"{value.get('version')!r} (this build reads "
                    f"{SUPPORTED_EXPLORATION_STATE_VERSIONS})")
        check_shape(value, _SHAPES[name])
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None
    return value


class CollectionArchive:
    """The paper's "Collected Files", held as the collector that
    produced them, plus a force-execution run's exploration frontier.

    An archive is built whole and never changes once built (readers
    must not change ``collector`` either), so :meth:`files` renders it
    once and keeps the texts, and :meth:`method_digests` digests it
    once and keeps the map.

    ``exploration_state`` is the frontier's dict, or a
    :class:`~repro.core.force_execution.ExplorationFrontier` whose
    dict is built on the first read (:meth:`exploration_state`,
    :meth:`files`, :meth:`save`, :meth:`merged`), so an archive nobody
    saves or resumes never serialises its frontier.
    """

    def __init__(self, collector: DexLegoCollector,
                 exploration_state=None) -> None:
        self.collector = collector
        self._exploration_state = exploration_state
        self._files: dict[str, str] | None = None
        self._digests: dict | None = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_collector(cls, collector: DexLegoCollector,
                       exploration_state=None) -> "CollectionArchive":
        return cls(collector, exploration_state)

    @classmethod
    def from_files(cls, files: dict) -> "CollectionArchive":
        """Parse collection files (name -> text or UTF-8 bytes: all of
        :data:`ALL_FILES`, and :data:`EXPLORATION_STATE_FILE` if the
        archive has one) once; one ``ValueError`` naming the first file
        that is not one of these, missing or malformed."""
        for name in files:
            if name not in _SHAPES:
                raise ValueError(f"{name}: not a file of a collection "
                                 f"archive")
        for name in ALL_FILES:
            if name not in files:
                raise ValueError(f"{name}: missing")
        values = {name: _parse(name, data) for name, data in files.items()}
        return cls(DexLegoCollector.from_rows(values),
                   values.get(EXPLORATION_STATE_FILE))

    def files(self) -> dict[str, str]:
        """File name -> JSON text: the collection files, then the
        exploration state if this archive carries one; rendered on
        first use."""
        if self._files is None:
            self._files = {name: json.dumps(rows, indent=1)
                           for name, rows in self.collector.rows().items()}
            state = self.exploration_state()
            if state is not None:
                self._files[EXPLORATION_STATE_FILE] = json.dumps(
                    state, indent=1)
        return self._files

    # -- persistence --------------------------------------------------------

    def save(self, directory: str) -> None:
        os.makedirs(directory, exist_ok=True)
        files = self.files()
        for name, text in files.items():
            # Atomic per file: a crash mid-save can lose whole files
            # (load will say which) but never leaves a half-written one
            # masquerading as collected data.
            faults.atomic_write_text(os.path.join(directory, name), text,
                                     site="archive.save")
        # A frontier this archive does not carry must not survive from
        # an earlier save: a stale exploration_state.json would
        # resurrect a foreign frontier on the next load/resume.
        if EXPLORATION_STATE_FILE not in files:
            path = os.path.join(directory, EXPLORATION_STATE_FILE)
            if os.path.exists(path):
                os.remove(path)

    @classmethod
    def load(cls, directory: str) -> "CollectionArchive":
        """Read and parse a saved archive, checking every file.

        Reads only the files an archive holds: the collection files,
        and the exploration state when present.
        """
        faults.check("archive.load")
        files = {}
        for name in ALL_FILES + (EXPLORATION_STATE_FILE,):
            path = os.path.join(directory, name)
            if name in ALL_FILES or os.path.exists(path):
                with open(path, "rb") as fh:
                    files[name] = fh.read()
        return cls.from_files(files)

    def total_size_bytes(self) -> int:
        """Dump-file size (Table VI's "Dump File Size" column): the
        Figure-2 collection files only, not the exploration state.

        Exactly the length of their :meth:`files` render, counted from
        the collector without rendering: ``bytecode.json`` from the
        trees (:func:`~repro.core.tree.trees_rendered_size`), the other
        five files from their rows."""
        collector = self.collector
        return (sum(map(_rendered_size, collector.metadata_rows().values()))
                + trees_rendered_size(collector.trees()))

    def method_digests(self, index=None) -> dict:
        """Signature -> :class:`~repro.index.digests.MethodDigests` for
        the executed methods: a reveal's one digest pass, shared by the
        index probe, the reassembler's body cache, index registration,
        the labeler and the cluster store.  Computed on the first call
        and kept.

        With a :class:`~repro.index.corpus.CorpusIndex` the pass reads
        through the index's memo
        (:meth:`~repro.index.corpus.CorpusIndex.reveal_digests`), so a
        worker or ``serve`` process digests each distinct method once
        for the index's lifetime; without one (a cluster-only reveal)
        every method is digested here.  ``repro.index`` is imported
        here, so a reveal without stores never loads it."""
        if self._digests is None:
            records = self.collector.method_store.executed_records()
            if index is not None:
                self._digests = index.reveal_digests(records)
            else:
                from repro.index.digests import reveal_digests

                self._digests = reveal_digests(records)
        return self._digests

    # -- merging (resume) ---------------------------------------------------

    @classmethod
    def merged(cls, base: "CollectionArchive",
               update: "CollectionArchive") -> "CollectionArchive":
        """Union of two archives: everything either session collected.

        A resumed exploration collects only its own session's runs, so
        its archive must be merged with the archive it resumed from or
        code executed only by the earlier session (the baseline drive,
        prior replays) would vanish from the reveal.  ``update``'s
        collector is :meth:`~DexLegoCollector.absorb`-ed into a copy of
        ``base``'s (neither input changes): trees deduplicate by
        fingerprint, the side that ran ``<clinit>`` carries the static
        values, and ``update``'s exploration state supersedes.
        """
        collector = DexLegoCollector.from_rows(base.collector.rows())
        collector.absorb(update.collector)
        return cls(collector, update.exploration_state())

    # -- exploration state (force-execution resume) -------------------------

    def exploration_state(self) -> dict | None:
        """The force-execution frontier snapshot, or None."""
        state = self._exploration_state
        if state is not None and not isinstance(state, dict):
            state = self._exploration_state = state.state_dict()
        return state
