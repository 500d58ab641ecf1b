"""Collection files: the on-disk format of Figure 2's intermediate.

The paper's modified ART writes five kinds of files during execution —
class data, field data, method data, static values and bytecode — which
the offline reassembler later combines.  In process the stages hand
over the collector: :class:`CollectionArchive` holds it and renders the
files from :meth:`~repro.core.collector.DexLegoCollector.rows` once,
when the archive is saved, sized (Table VI) or zipped;
:meth:`CollectionArchive.load` parses them once, into a collector, and
refuses a file that is not the JSON a collector writes with one
``ValueError`` naming it.
"""

from __future__ import annotations

import json
import logging
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
from repro.jsonshape import NULL, check_shape
from repro.runtime.predecode import validate_predecode_index

EXPLORATION_STATE_FILE = "exploration_state.json"
PREDECODE_INDEX_FILE = "predecode_index.json"

logger = logging.getLogger(__name__)

#: Files an archive may carry but reassembly does not require.
#: ``exploration_state.json`` is the force-execution frontier snapshot
#: (scheduler state, covered-outcome map, counters) that lets a resumed
#: run continue an interrupted exploration instead of restarting.
#: ``predecode_index.json`` is the serialised warm decode state
#: (:mod:`repro.runtime.predecode`) so the resuming session — and its
#: replay worker processes — warm-start instead of re-decoding.
OPTIONAL_FILES = (EXPLORATION_STATE_FILE, PREDECODE_INDEX_FILE)

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
    # Checked after their format version (see _parse).
    EXPLORATION_STATE_FILE: {"scheduler": dict, "outcomes?": list,
                             "traces?": list, "site_traces?": list,
                             "report?": dict,
                             "apk_main_activity?": (str, NULL)},
    PREDECODE_INDEX_FILE: {"methods": [{"signature": str,
                                        "generation": int,
                                        "entries": [[int, [int]]]}]},
}


def _parse(name: str, data: str | bytes):
    """One file's content (text, or UTF-8 bytes as read from disk) as
    the JSON value a collector writes; one ``ValueError`` naming the
    file otherwise."""
    try:
        value = json.loads(data.decode("utf-8") if isinstance(data, bytes)
                           else data)
        if name in OPTIONAL_FILES:
            # A foreign format version says so before any shape check.
            check_shape(value, dict)
            if name == PREDECODE_INDEX_FILE:
                validate_predecode_index(value)
            elif value.get("version") not in \
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
    produced them.

    ``collector`` is the archive's content and never changes once the
    archive is built (readers must not change it either), so
    :meth:`files` renders it once and keeps the texts.
    """

    def __init__(self, collector: DexLegoCollector,
                 exploration_state: dict | None = None,
                 predecode_index: dict | None = None) -> None:
        self.collector = collector
        self._optional = {EXPLORATION_STATE_FILE: exploration_state,
                          PREDECODE_INDEX_FILE: predecode_index}
        self._files: dict[str, str] | None = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_collector(cls, collector: DexLegoCollector) -> "CollectionArchive":
        return cls(collector)

    @classmethod
    def from_files(cls, files: dict,
                   strict: bool = True) -> "CollectionArchive":
        """Parse collection files (name -> text or UTF-8 bytes, all of
        :data:`ALL_FILES` required) once; ``strict`` as in :meth:`load`."""
        values = {}
        for name, data in files.items():
            try:
                values[name] = _parse(name, data)
            except ValueError as exc:
                if strict or name != PREDECODE_INDEX_FILE:
                    raise
                logger.warning("dropping unreadable predecode index (%s); "
                               "cold decode instead of warm start", exc)
        return cls(DexLegoCollector.from_rows(values),
                   values.get(EXPLORATION_STATE_FILE),
                   values.get(PREDECODE_INDEX_FILE))

    def files(self) -> dict[str, str]:
        """File name -> JSON text: the collection files, then the
        optional files this archive carries; rendered on first use."""
        if self._files is None:
            self._files = {
                name: json.dumps(value, indent=1)
                for name, value in (*self.collector.rows().items(),
                                    *self._optional.items())
                if value is not None}
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
        # Optional files this archive does not carry must not survive
        # from an earlier save — a stale exploration_state.json would
        # resurrect a foreign frontier on the next load/resume.
        for name in OPTIONAL_FILES:
            if name not in files:
                path = os.path.join(directory, name)
                if os.path.exists(path):
                    os.remove(path)

    @classmethod
    def load(cls, directory: str,
             strict: bool = True) -> "CollectionArchive":
        """Read and parse a saved archive, checking every file.

        The exploration frontier is correctness-bearing and always
        strict; the predecode index is a pure warm-start optimisation,
        so ``strict=False`` (the service's degradation mode) drops a
        foreign or unreadable one with a warning instead of failing.
        """
        faults.check("archive.load")
        files = {}
        for name in ALL_FILES + OPTIONAL_FILES:
            path = os.path.join(directory, name)
            if name in ALL_FILES or os.path.exists(path):
                with open(path, "rb") as fh:
                    files[name] = fh.read()
        return cls.from_files(files, strict=strict)

    def total_size_bytes(self) -> int:
        """Dump-file size (Table VI's "Dump File Size" column): the
        Figure-2 collection files only, not the optional bookkeeping."""
        files = self.files()
        return sum(len(files[name].encode("utf-8")) for name in ALL_FILES)

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
        # Warm decode state: the update session re-exported its stores
        # after running, so its index supersedes; an update without one
        # (e.g. a no-op resume) keeps the base's warmth.
        return cls(collector, update.exploration_state(),
                   update.predecode_index() or base.predecode_index())

    # -- exploration state (force-execution resume) -------------------------

    def exploration_state(self) -> dict | None:
        """The force-execution frontier snapshot, or None."""
        return self._optional[EXPLORATION_STATE_FILE]

    def set_exploration_state(self, state: dict | None) -> None:
        """Attach (or clear) the frontier snapshot carried by save/load."""
        self._optional[EXPLORATION_STATE_FILE] = state
        self._files = None

    # -- predecode index (warm decode state) --------------------------------

    def predecode_index(self) -> dict | None:
        """The warm decode state, or None."""
        return self._optional[PREDECODE_INDEX_FILE]

    def set_predecode_index(self, index: dict | None) -> None:
        """Attach (or clear) the warm decode state carried by save/load."""
        self._optional[PREDECODE_INDEX_FILE] = index
        self._files = None
