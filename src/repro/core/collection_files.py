"""Collection files: the on-disk intermediate of Figure 2.

The paper's modified ART writes five kinds of files during execution —
class data, field data, method data, static values and bytecode — which
the offline reassembler later combines.  :class:`CollectionArchive`
implements that boundary: it serialises a collector's state to a
directory (or measures its size in memory for Table VI) and loads it back
for offline reassembly, proving collection and reassembly share no
in-process state.
"""

from __future__ import annotations

import json
import logging
import os

from repro import faults
from repro.core.collector import (
    CollectedClass,
    CollectedField,
    DexLegoCollector,
    ReflectionSite,
)
from repro.core.method_store import MethodRecord, MethodStore
from repro.core.tree import CollectionTree
from repro.runtime.predecode import validate_predecode_index

CLASS_DATA_FILE = "class_data.json"
FIELD_DATA_FILE = "field_data.json"
METHOD_DATA_FILE = "method_data.json"
STATIC_VALUES_FILE = "static_values.json"
BYTECODE_FILE = "bytecode.json"
REFLECTION_FILE = "reflection.json"
EXPLORATION_STATE_FILE = "exploration_state.json"
PREDECODE_INDEX_FILE = "predecode_index.json"

logger = logging.getLogger(__name__)

ALL_FILES = (
    CLASS_DATA_FILE,
    FIELD_DATA_FILE,
    METHOD_DATA_FILE,
    STATIC_VALUES_FILE,
    BYTECODE_FILE,
    REFLECTION_FILE,
)

#: Files an archive may carry but reassembly does not require.
#: ``exploration_state.json`` is the force-execution frontier snapshot
#: (scheduler state, covered-outcome map, counters) that lets a resumed
#: run continue an interrupted exploration instead of restarting.
#: ``predecode_index.json`` is the serialised warm decode state
#: (:mod:`repro.runtime.predecode`) so the resuming session — and its
#: replay worker processes — warm-start instead of re-decoding.
OPTIONAL_FILES = (EXPLORATION_STATE_FILE, PREDECODE_INDEX_FILE)

#: Exploration-state format versions this build can hydrate.  Checked
#: eagerly on load (and again on access): a frontier written by a
#: different format must fail with one clear line *before* any
#: exploration state is rebuilt from it, not corrupt a resumed run.
SUPPORTED_EXPLORATION_STATE_VERSIONS = (1,)


class CollectionArchive:
    """Serialised collection output (the paper's "Collected Files")."""

    def __init__(self, payload: dict[str, str]) -> None:
        self._payload = payload  # filename -> JSON text

    # -- construction -----------------------------------------------------

    @classmethod
    def from_collector(cls, collector: DexLegoCollector) -> "CollectionArchive":
        class_data = []
        field_data = []
        static_values = []
        for collected in collector.classes.values():
            class_data.append(
                {
                    "descriptor": collected.descriptor,
                    "superclass": collected.superclass_desc,
                    "interfaces": list(collected.interface_descs),
                    "access": collected.access_flags,
                    "initialized": collected.initialized,
                    "methods": collected.method_signatures,
                }
            )
            for collected_field in collected.fields:
                field_data.append(
                    {
                        "class": collected.descriptor,
                        **collected_field.to_dict(),
                    }
                )
                static_values.append(
                    {
                        "class": collected.descriptor,
                        "field": collected_field.name,
                        "value": list(collected_field.static_value),
                    }
                )
        method_data = []
        bytecode = []
        for record in collector.method_store.records.values():
            method_data.append(record.to_dict())
            for tree in record.trees:
                bytecode.append(tree.to_dict())
        reflection = [
            site.to_dict() for site in collector.reflection_sites.values()
        ]
        payload = {
            CLASS_DATA_FILE: json.dumps(class_data, indent=1),
            FIELD_DATA_FILE: json.dumps(field_data, indent=1),
            METHOD_DATA_FILE: json.dumps(method_data, indent=1),
            STATIC_VALUES_FILE: json.dumps(static_values, indent=1),
            BYTECODE_FILE: json.dumps(bytecode, indent=1),
            REFLECTION_FILE: json.dumps(reflection, indent=1),
        }
        return cls(payload)

    # -- persistence --------------------------------------------------------

    def save(self, directory: str) -> None:
        os.makedirs(directory, exist_ok=True)
        for name, text in self._payload.items():
            # Atomic per file: a crash mid-save can lose whole files
            # (load will say which) but never leaves a half-written one
            # masquerading as collected data.
            faults.atomic_write_text(os.path.join(directory, name), text,
                                     site="archive.save")
        # Optional files this archive does not carry must not survive
        # from an earlier save — a stale exploration_state.json would
        # resurrect a foreign frontier on the next load/resume.
        for name in OPTIONAL_FILES:
            if name not in self._payload:
                path = os.path.join(directory, name)
                if os.path.exists(path):
                    os.remove(path)

    @classmethod
    def load(cls, directory: str,
             strict: bool = True) -> "CollectionArchive":
        faults.check("archive.load")
        payload = {}
        for name in ALL_FILES:
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as fh:
                payload[name] = fh.read()
        for name in OPTIONAL_FILES:
            path = os.path.join(directory, name)
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    payload[name] = fh.read()
        archive = cls(payload)
        # Version-validate the stateful optional files *now*: every
        # consumer that hydrates exploration state (reassemble CLI,
        # resume, reveal_from_archive) goes through load, so a foreign
        # format fails here with one line instead of deep in a resume.
        # The exploration frontier is correctness-bearing and always
        # strict; the predecode index is a pure warm-start optimisation,
        # so ``strict=False`` (the service's degradation mode) drops a
        # foreign or unreadable one with a warning instead of failing
        # the load.
        archive.exploration_state()
        try:
            archive.predecode_index()
        except ValueError:
            if strict:
                raise
            logger.warning(
                "dropping unreadable predecode index from archive at %s "
                "(cold decode instead of warm start)", directory)
            archive._payload.pop(PREDECODE_INDEX_FILE, None)
        return archive

    def total_size_bytes(self) -> int:
        """Dump-file size (Table VI's "Dump File Size" column).

        Counts only the Figure-2 collection files; optional
        bookkeeping (the exploration-state snapshot) is not part of the
        paper's metric.
        """
        return sum(
            len(text.encode("utf-8"))
            for name, text in self._payload.items()
            if name not in OPTIONAL_FILES
        )

    # -- merging (resume) ---------------------------------------------------

    @classmethod
    def merged(cls, base: "CollectionArchive",
               update: "CollectionArchive") -> "CollectionArchive":
        """Union of two archives: everything either session collected.

        A resumed exploration collects only its own session's runs, so
        its archive must be merged with the archive it resumed from or
        code executed only by the earlier session (the baseline drive,
        prior replays) would vanish from the reveal.  The merge is the
        collector's own: both archives are rebuilt as collectors and
        ``update`` is :meth:`~DexLegoCollector.absorb`-ed into ``base``,
        so trees deduplicate by fingerprint and keep their order within
        each method, and the side that ran ``<clinit>`` carries the
        static values.  The exploration state is ``update``'s (it
        supersedes the frontier it was resumed from).
        """
        collector = base._collector()
        collector.absorb(update._collector())
        archive = cls.from_collector(collector)
        archive.set_exploration_state(update.exploration_state())
        # Warm decode state: the update session re-exported its stores
        # after running, so its index supersedes; an update without one
        # (e.g. a no-op resume) keeps the base's warmth.
        archive.set_predecode_index(update.predecode_index()
                                    or base.predecode_index())
        return archive

    def _collector(self) -> DexLegoCollector:
        """This archive's collection files as a collector."""
        collector = DexLegoCollector()
        collector.classes = self.collected_class_map()
        collector.method_store = self.method_store()
        collector.reflection_sites = self.reflection_sites()
        return collector

    # -- exploration state (force-execution resume) -------------------------

    def exploration_state(self) -> dict | None:
        """The serialised force-execution frontier, or None.

        Raises ``ValueError`` (one line) when the archive carries a
        frontier in a format version this build cannot hydrate.
        """
        text = self._payload.get(EXPLORATION_STATE_FILE)
        if text is None:
            return None
        state = json.loads(text)
        version = state.get("version")
        if version not in SUPPORTED_EXPLORATION_STATE_VERSIONS:
            raise ValueError(
                f"unsupported exploration state version {version!r} in "
                f"{EXPLORATION_STATE_FILE} (this build reads "
                f"{SUPPORTED_EXPLORATION_STATE_VERSIONS})"
            )
        return state

    def set_exploration_state(self, state: dict | None) -> None:
        """Attach (or clear) the frontier snapshot carried by save/load."""
        if state is None:
            self._payload.pop(EXPLORATION_STATE_FILE, None)
        else:
            self._payload[EXPLORATION_STATE_FILE] = json.dumps(state, indent=1)

    # -- predecode index (warm decode state) --------------------------------

    def predecode_index(self) -> dict | None:
        """The serialised warm decode state, or None.

        Raises ``ValueError`` on a foreign index format version — warm
        state is an optimisation, but silently adopting entries whose
        layout this build misreads would be a correctness bug.
        """
        text = self._payload.get(PREDECODE_INDEX_FILE)
        if text is None:
            return None
        return validate_predecode_index(json.loads(text))

    def set_predecode_index(self, index: dict | None) -> None:
        """Attach (or clear) the warm decode state carried by save/load."""
        if index is None:
            self._payload.pop(PREDECODE_INDEX_FILE, None)
        else:
            self._payload[PREDECODE_INDEX_FILE] = json.dumps(index, indent=1)

    # -- deserialisation into reassembler inputs ----------------------------------

    def classes(self) -> list[dict]:
        return json.loads(self._payload[CLASS_DATA_FILE])

    def fields(self) -> list[dict]:
        return json.loads(self._payload[FIELD_DATA_FILE])

    def method_store(self) -> MethodStore:
        store = MethodStore()
        for entry in json.loads(self._payload[METHOD_DATA_FILE]):
            store.ensure(MethodRecord.from_dict(entry))
        for tree_data in json.loads(self._payload[BYTECODE_FILE]):
            tree = CollectionTree.from_dict(tree_data)
            store.add_tree(tree.method_signature, tree)
        return store

    def reflection_sites(self) -> dict[tuple[str, int], ReflectionSite]:
        sites: dict[tuple[str, int], ReflectionSite] = {}
        for entry in json.loads(self._payload[REFLECTION_FILE]):
            site = ReflectionSite.from_dict(entry)
            sites[(site.caller_signature, site.dex_pc)] = site
        return sites

    def collected_class_map(self) -> dict[str, CollectedClass]:
        """Rebuild CollectedClass objects (metadata + fields + values)."""
        by_desc: dict[str, CollectedClass] = {}
        for entry in self.classes():
            by_desc[entry["descriptor"]] = CollectedClass(
                descriptor=entry["descriptor"],
                superclass_desc=entry["superclass"],
                interface_descs=tuple(entry["interfaces"]),
                access_flags=entry["access"],
                initialized=entry["initialized"],
                method_signatures=list(entry["methods"]),
            )
        for entry in self.fields():
            collected = by_desc.get(entry["class"])
            if collected is not None:
                collected.fields.append(
                    CollectedField(
                        entry["name"],
                        entry["type"],
                        entry["access"],
                        tuple(entry["value"]),
                    )
                )
        return by_desc
