"""Just-in-Time collection (paper §III-A, §IV-A, §IV-C, Figure 2).

:class:`DexLegoCollector` attaches to the runtime as a listener and
collects, the moment ART touches them:

* class metadata at class-link time (superclass, interfaces, fields,
  method structures, try blocks);
* static field values at initialization time;
* executed instructions at interpreter-fetch time, fed through
  Algorithm 1 into per-execution collection trees;
* resolved reflective-call targets at ``Method.invoke`` dispatch.

Only application classes (those backed by a DEX file) are collected —
framework classes are boot-classpath noise, exactly as on ART.

A force-execution replay's collector is built with the engine's as its
*known* trees and collects only what the engine's merge would keep: it
logs each frame's first visits while the frame's code holds still and
decides the frame at method exit, by one fingerprint lookup in the
known method record, and it does not record classes the engine holds
with every method they declare.  A collector without known trees runs
Algorithm 1 on every step.

A collector has one encoding, :meth:`DexLegoCollector.rows`, the rows
of its collection files: the archive renders them to disk and the
process backend ships them, plus the instruction count.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.core.method_store import CollectedTry, MethodRecord, MethodStore
from repro.core.tree import CollectedInstruction, CollectionTree
from repro.dex.formats import FORMAT_UNITS
from repro.dex.opcodes import IndexKind
from repro.dex.payloads import payload_unit_count
from repro.runtime.hooks import RuntimeListener
from repro.runtime.values import VmString

CLASS_DATA_FILE = "class_data.json"
FIELD_DATA_FILE = "field_data.json"
METHOD_DATA_FILE = "method_data.json"
STATIC_VALUES_FILE = "static_values.json"
BYTECODE_FILE = "bytecode.json"
REFLECTION_FILE = "reflection.json"

#: The collection files (Figure 2's five plus reflection records), in
#: the order :meth:`DexLegoCollector.rows` lists them.
ALL_FILES = (CLASS_DATA_FILE, FIELD_DATA_FILE, METHOD_DATA_FILE,
             STATIC_VALUES_FILE, BYTECODE_FILE, REFLECTION_FILE)


@dataclass
class CollectedField:
    name: str
    type_desc: str
    access_flags: int
    static_value: tuple = ("null",)


@dataclass
class CollectedClass:
    """Class metadata captured at link/init time (class data file)."""

    descriptor: str
    superclass_desc: str | None
    interface_descs: tuple[str, ...]
    access_flags: int
    fields: list[CollectedField] = field(default_factory=list)
    method_signatures: list[str] = field(default_factory=list)
    initialized: bool = False


@dataclass
class ReflectionSite:
    """One reflective invoke site and the targets resolved there.

    The insertion-ordered ``target_static`` dict is the single source
    of truth and is only ever mutated via ``setdefault``, so a target
    keeps the static flag it was first observed with.
    """

    caller_signature: str
    dex_pc: int
    target_static: dict[str, bool] = field(default_factory=dict)

    @property
    def targets(self) -> list[str]:
        """Target signatures in first-observed order."""
        return list(self.target_static)

    def add_target(self, signature: str, is_static: bool) -> None:
        self.target_static.setdefault(signature, is_static)

    def to_dict(self) -> dict:
        return {
            "caller": self.caller_signature,
            "dex_pc": self.dex_pc,
            "targets": [
                {"signature": sig, "static": static}
                for sig, static in self.target_static.items()
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ReflectionSite":
        site = cls(data["caller"], data["dex_pc"])
        for target in data["targets"]:
            site.add_target(target["signature"], target["static"])
        return site


class _FrameState:
    """What one executing frame is collecting, behind one lookup.

    ``count`` is its executed instructions, folded into the collector's
    total at method exit, so a frame that a crash never exited stays out
    of the total.  ``tree`` is the frame's collection tree, fed through
    Algorithm 1 step by step; ``first`` is ``None`` (see
    :class:`_FrameLog`).
    """

    __slots__ = ("tree", "count", "first")

    def __init__(self, tree: CollectionTree | None) -> None:
        self.tree = tree
        self.count = 0
        self.first: dict | None = None


class _FrameLog(_FrameState):
    """A replay collector's frame: a log of first visits, kept for as
    long as the frame's code array is the one it entered with
    (``array``) at the same ``generation``.

    ``first`` maps each pc to its decode in first-visit order; ``units``
    and ``payloads`` hold, in the same order, the units and a 31t's
    payload as they were at that visit.  While the array holds still a
    repeat cannot diverge, so Algorithm 1 would skip it and the log is
    the frame's whole tree.  Once the code changes, ``first`` is
    ``None`` and the frame streams through ``tree``.
    """

    __slots__ = ("units", "payloads", "array", "generation")

    def __init__(self, array) -> None:
        self.tree = None
        self.count = 0
        self.first = {}
        self.units: list[tuple[int, ...]] = []
        self.payloads: list[tuple[int, ...] | None] = []
        self.array = array
        self.generation = array.generation


class DexLegoCollector(RuntimeListener):
    """The JIT collection component of DexLego.

    ``known`` is another collector read as what is already held (a
    force-execution replay gets the engine's), since this collector is
    merged into it with :meth:`absorb` and anything it holds already
    would be dropped there.  Such a *replay collector* logs each frame's
    first visits instead of running Algorithm 1 on every step and
    decides the frame at method exit: one fingerprint lookup in the
    known method record drops an exact repeat, and anything else
    becomes the tree Algorithm 1 would have built.  If the frame's code
    changes mid-frame, its log becomes a tree and Algorithm 1 streams
    the rest.  It also records nothing for a class ``known`` holds with
    every method the class declares, unless the replay initialises it.
    Nothing writes to ``known`` through this collector.
    """

    def __init__(self, known: "DexLegoCollector | None" = None) -> None:
        self.classes: dict[str, CollectedClass] = {}
        self.method_store = MethodStore()
        self.reflection_sites: dict[tuple[str, int], ReflectionSite] = {}
        self.instructions_observed = 0
        self.known = known
        # descriptor -> the class row of the first definition a replay
        # skipped recording, kept out of ``classes`` unless needed.
        self._skipped: dict[str, CollectedClass] = {}
        self._frames: dict[int, _FrameState] = {}

    # -- class linking (metadata collection) --------------------------------

    def on_class_loaded(self, klass) -> None:
        dex = klass.source_dex
        if dex is None:
            return  # framework class: not part of the application
        descriptor = klass.descriptor
        if self.known is not None and descriptor not in self.classes \
                and self._skips(klass):
            return
        collected = _class_row(klass)
        for method in klass.methods.values():
            if method.declaring_class is not klass:
                continue
            record = MethodRecord(
                signature=method.ref.signature,
                class_desc=descriptor,
                name=method.ref.name,
                param_descs=method.ref.param_descs,
                return_desc=method.ref.return_desc,
                access_flags=method.access_flags,
                is_native=method.is_native,
            )
            if method.code is not None:
                record.registers_size = method.code.registers_size
                record.ins_size = method.code.ins_size
                record.outs_size = method.code.outs_size
                for try_block in method.code.tries:
                    record.tries.append(
                        CollectedTry(
                            try_block.start_addr,
                            try_block.insn_count,
                            [
                                (dex.type_descriptor(t), addr)
                                for t, addr in try_block.handlers
                            ],
                            try_block.catch_all,
                        )
                    )
            self.method_store.ensure(record)
            collected.method_signatures.append(method.ref.signature)
        # setdefault, not assignment: a class linked again keeps the
        # first record (and any init state recorded on it).
        self.classes.setdefault(descriptor, collected)

    def _skips(self, klass) -> bool:
        """Whether a replay records nothing for ``klass``: ``known``
        holds its descriptor with every method it declares, so absorb
        would keep none of its records.  The first definition skipped
        keeps its class row aside; a later one recorded in full still
        gets that row, as a full link keeps the first."""
        descriptor = klass.descriptor
        first = self._skipped.get(descriptor)
        held = self.known.classes.get(descriptor)
        signatures = [method.ref.signature
                      for method in klass.methods.values()
                      if method.declaring_class is klass]
        if held is not None and \
                set(held.method_signatures).issuperset(signatures):
            if first is None:
                first = self._skipped[descriptor] = _class_row(klass)
                first.method_signatures = signatures
            return True
        if first is not None:
            self.classes[descriptor] = first
        return False

    def on_class_initialized(self, klass) -> None:
        collected = self.classes.get(klass.descriptor)
        if collected is None:
            # A skipped class's initialisation is news to ``known``: its
            # static values, all that absorb reads of a class it holds.
            collected = self._skipped.get(klass.descriptor)
            if collected is None:
                return
            self.classes[klass.descriptor] = collected
        collected.initialized = True
        defaults = getattr(klass, "_static_value_defaults", None) or {}
        for collected_field in collected.fields:
            if collected_field.name in defaults:
                collected_field.static_value = _encode_static(
                    defaults[collected_field.name]
                )

    # -- bytecode collection (Algorithm 1) -------------------------------------

    def on_method_enter(self, frame) -> None:
        method = frame.method
        if method.declaring_class.source_dex is None or method.code is None:
            return
        if self.known is not None:
            array = frame.code.insns
            if hasattr(array, "generation"):
                self._frames[id(frame)] = _FrameLog(array)
                return
        self._frames[id(frame)] = _FrameState(_new_tree(frame))

    def on_instruction(self, frame, dex_pc: int, ins) -> None:
        state = self._frames.get(id(frame))
        if state is None:
            return
        state.count += 1
        code_units = frame.code.insns  # the live array
        first = state.first
        if first is not None:
            if code_units is state.array \
                    and code_units.generation == state.generation:
                if dex_pc in first:
                    return  # a repeat: the array holds still
                first[dex_pc] = ins
                fmt = ins.opcode.fmt
                state.units.append(
                    tuple(code_units[dex_pc : dex_pc + FORMAT_UNITS[fmt]]))
                state.payloads.append(
                    _payload(code_units, dex_pc, ins) if fmt == "31t"
                    else None)
                return
            # The code changed: the log so far is what Algorithm 1 held,
            # and it streams from this step on.
            state.tree = self._logged_tree(frame, state)
            state.first = None
        fmt = ins.opcode.fmt
        # ins.unit_count without a property call per executed step.
        units = tuple(code_units[dex_pc : dex_pc + FORMAT_UNITS[fmt]])
        payload_units = None
        if fmt == "31t":
            payload_units = _payload(code_units, dex_pc, ins)
        symbol = self._resolve_symbol(frame, ins)
        state.tree.observe(
            CollectedInstruction(dex_pc, units, payload_units, symbol, ins)
        )

    def _logged_tree(self, frame, state: _FrameLog) -> CollectionTree:
        """The tree of a frame's first-visit log: every pc once, in
        first-visit order, each symbol resolved against the frame's own
        DEX (its pools only ever grow, so an index resolves as it did
        at the step)."""
        tree = _new_tree(frame)
        record = tree.root.record
        resolve = self._resolve_symbol
        for (dex_pc, ins), units, payload_units in zip(
                state.first.items(), state.units, state.payloads):
            record(CollectedInstruction(dex_pc, units, payload_units,
                                        resolve(frame, ins), ins))
        return tree

    @staticmethod
    def _resolve_symbol(frame, ins) -> str | None:
        """Resolve the pool reference to its symbolic form (JIT collection
        of the "related objects" — string / type / field / method)."""
        kind = ins.opcode.index_kind
        if kind is IndexKind.NONE:
            return None
        dex = frame.method.declaring_class.source_dex
        index = ins.pool_index
        if kind is IndexKind.STRING:
            return dex.string(index)
        if kind is IndexKind.TYPE:
            return dex.type_descriptor(index)
        if kind is IndexKind.FIELD:
            return dex.field_ref(index).signature
        return dex.method_ref(index).signature

    def on_method_exit(self, frame, result) -> None:
        state = self._frames.pop(id(frame), None)
        if state is None:
            return
        self.instructions_observed += state.count
        signature = frame.method.ref.signature
        known = (None if self.known is None
                 else self.known.method_store.get(signature))
        first = state.first
        if first is not None:
            if not first:
                return
            # The fingerprint of the tree the log is, built in C.
            if known is not None and known.holds((signature, (
                    0, tuple(zip(first, state.units, state.payloads)),
                    ()))):
                return  # a repeat of a known tree: nothing new to keep
            tree = self._logged_tree(frame, state)
        else:
            tree = state.tree
            if not tree.root.il:
                return
            if known is not None and known.holds(tree.fingerprint()):
                return  # absorb would drop it
        record = self.method_store.get(signature)
        if record is None:
            # A method of a class skipped at link: the known record's
            # metadata, which is what absorb keeps anyway.
            if known is None or \
                    frame.method.declaring_class.descriptor not in self._skipped:
                return
            record = self.method_store.ensure(
                dataclasses.replace(known, trees=[]))
        record.add_tree(tree)

    # -- reflection (§IV-D) -------------------------------------------------------

    def on_reflective_call(self, frame, target_method, receiver, args) -> None:
        if frame is None:
            return
        caller = frame.method
        if caller.declaring_class.source_dex is None:
            return
        key = (caller.ref.signature, frame.dex_pc)
        site = self.reflection_sites.get(key)
        if site is None:
            site = self.reflection_sites[key] = ReflectionSite(
                caller.ref.signature, frame.dex_pc)
        site.add_target(target_method.ref.signature, target_method.is_static)

    # -- merging replays (force execution) ----------------------------------

    def rows(self) -> dict[str, list]:
        """Everything this collector holds, as the rows of its
        collection files: file name -> JSON-safe list, in
        :data:`ALL_FILES` order (static values are in both
        ``field_data.json``, which :meth:`from_rows` reads, and
        ``static_values.json``)."""
        rows = self.metadata_rows()
        rows[BYTECODE_FILE] = [tree.to_dict() for tree in self.trees()]
        return {name: rows[name] for name in ALL_FILES}

    def trees(self):
        """Every collection tree, in ``bytecode.json`` row order."""
        for record in self.method_store.records.values():
            yield from record.trees

    def metadata_rows(self) -> dict[str, list]:
        """:meth:`rows` of every file but ``bytecode.json``."""
        classes, fields, statics = [], [], []
        for collected in self.classes.values():
            desc = collected.descriptor
            classes.append({
                "descriptor": desc, "superclass": collected.superclass_desc,
                "interfaces": list(collected.interface_descs),
                "access": collected.access_flags,
                "initialized": collected.initialized,
                "methods": collected.method_signatures})
            for f in collected.fields:
                fields.append({"class": desc, "name": f.name,
                               "type": f.type_desc, "access": f.access_flags,
                               "value": list(f.static_value)})
                statics.append({"class": desc, "field": f.name,
                                "value": list(f.static_value)})
        return {
            CLASS_DATA_FILE: classes,
            FIELD_DATA_FILE: fields,
            METHOD_DATA_FILE: [record.to_dict() for record
                               in self.method_store.records.values()],
            STATIC_VALUES_FILE: statics,
            REFLECTION_FILE: [site.to_dict()
                              for site in self.reflection_sites.values()],
        }

    @classmethod
    def from_rows(cls, rows: dict[str, list]) -> "DexLegoCollector":
        """Rebuild a collector from :meth:`rows` (other keys ignored);
        trees go through their method records, as during collection."""
        collector = cls()
        classes = collector.classes
        for entry in rows[CLASS_DATA_FILE]:
            classes[entry["descriptor"]] = CollectedClass(
                entry["descriptor"], entry["superclass"],
                tuple(entry["interfaces"]), entry["access"], [],
                list(entry["methods"]), entry["initialized"])
        for entry in rows[FIELD_DATA_FILE]:
            collected = classes.get(entry["class"])
            if collected is not None:
                collected.fields.append(CollectedField(
                    entry["name"], entry["type"], entry["access"],
                    tuple(entry["value"])))
        store = collector.method_store
        for entry in rows[METHOD_DATA_FILE]:
            store.ensure(MethodRecord.from_dict(entry))
        for entry in rows[BYTECODE_FILE]:
            tree = CollectionTree.from_dict(entry)
            store.add_tree(tree.method_signature, tree)
        for entry in rows[REFLECTION_FILE]:
            site = ReflectionSite.from_dict(entry)
            collector.reflection_sites[(site.caller_signature,
                                        site.dex_pc)] = site
        return collector

    def delta_dict(self) -> dict:
        """The process backend's wire format: :meth:`rows` plus
        ``instructions_observed``.  A worker's replay ships its
        collector this way (pickling a collector calls this) and the
        engine rebuilds it with :meth:`from_delta` for :meth:`absorb`.
        Instruction counts still in per-frame state (a frame a crash
        never exited) are excluded, as a directly-attached collector
        would have."""
        return {**self.rows(),
                "instructions_observed": self.instructions_observed}

    @classmethod
    def from_delta(cls, data: dict) -> "DexLegoCollector":
        """Rebuild a collector from :meth:`delta_dict`'s value."""
        collector = cls.from_rows(data)
        collector.instructions_observed = data["instructions_observed"]
        return collector

    def __reduce__(self):
        # A collector crosses a process boundary as its delta.
        return (DexLegoCollector.from_delta, (self.delta_dict(),))

    def absorb(self, other: "DexLegoCollector") -> None:
        """Merge one replay's collector into this one.

        The engine's one merge, run for every replay in pop order: an
        in-process replay hands over its collector live, a process
        replay's arrives rebuilt from its :meth:`delta_dict`.  The
        rules mirror what a directly-attached shared collector does
        event by event — classes keyed by descriptor, method records
        by signature with fingerprint-deduped trees, reflection targets
        unioned in first-observed order — in the engine's deterministic
        merge order.  ``other`` is used up: classes and trees this
        collector lacks are adopted, not copied.  A replay
        that initialized a class carries its real static values, so it
        overwrites link-time defaults (and, like a later serial run
        re-entering ``<clinit>``, any earlier values).
        """
        for theirs in other.classes.values():
            collected = self.classes.setdefault(theirs.descriptor, theirs)
            if collected is theirs:
                continue
            seen = set(collected.method_signatures)
            collected.method_signatures.extend(
                sig for sig in theirs.method_signatures if sig not in seen
            )
            if theirs.initialized:
                collected.initialized = True
                values = {f.name: f.static_value for f in theirs.fields}
                for collected_field in collected.fields:
                    if collected_field.name in values:
                        collected_field.static_value = \
                            values[collected_field.name]
        for record in other.method_store.records.values():
            mine = self.method_store.get(record.signature)
            if mine is None:
                mine = self.method_store.ensure(
                    dataclasses.replace(record, trees=[]))
            for tree in record.trees:
                mine.add_tree(tree)
        for site in other.reflection_sites.values():
            mine = self.reflection_sites.setdefault(
                (site.caller_signature, site.dex_pc),
                ReflectionSite(site.caller_signature, site.dex_pc),
            )
            for signature, is_static in site.target_static.items():
                mine.add_target(signature, is_static)
        self.instructions_observed += other.instructions_observed

    # -- summary ---------------------------------------------------------------

    def stats(self) -> dict:
        executed = self.method_store.executed_records()
        return {
            "classes_collected": len(self.classes),
            "methods_linked": len(self.method_store.records),
            "methods_executed": len(executed),
            "unique_trees": sum(len(r.trees) for r in executed),
            "divergent_methods": sum(
                1
                for r in executed
                if any(t.has_divergence() for t in r.trees)
            ),
            "instructions_observed": self.instructions_observed,
            "collected_instructions": self.method_store.total_collected_instructions(),
            "reflection_sites": len(self.reflection_sites),
        }


def _class_row(klass) -> CollectedClass:
    """A linked class's row: its fields, with no static values yet, and
    no methods."""
    collected = CollectedClass(
        descriptor=klass.descriptor,
        superclass_desc=(
            klass.superclass.descriptor if klass.superclass else None
        ),
        interface_descs=tuple(i.descriptor for i in klass.interfaces),
        access_flags=klass.access_flags,
    )
    for runtime_field in klass.fields.values():
        collected.fields.append(
            CollectedField(
                runtime_field.name,
                runtime_field.type_desc,
                runtime_field.access_flags,
            )
        )
    return collected


def _payload(code_units, dex_pc: int, ins) -> tuple[int, ...] | None:
    """The payload a 31t at ``dex_pc`` references, as the array holds it
    now; ``None`` when its target is outside the array."""
    target = dex_pc + ins.branch_target
    if 0 <= target < len(code_units):
        count = payload_unit_count(code_units, target)
        return tuple(code_units[target : target + count])
    return None


def _new_tree(frame) -> CollectionTree:
    code = frame.code
    return CollectionTree(frame.method.ref.signature, code.registers_size,
                          code.ins_size, code.outs_size)


def _encode_static(value) -> tuple:
    """Encode a VM static value into a serialisable tagged tuple."""
    if value is None:
        return ("null",)
    if isinstance(value, VmString):
        return ("string", value.value)
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, int):
        return ("int", value)
    if isinstance(value, float):
        return ("float", value)
    return ("null",)
