"""In-memory model of a DEX file.

A :class:`DexFile` holds the five constant pools (strings, types, protos,
fields, methods) plus class definitions.  Instructions inside code items
reference pools by index, exactly as in the binary format; the
``intern_*`` family adds pool entries on demand and the ``canonicalize``
pass sorts the pools into the order the binary format mandates, rewriting
every index reference (including those embedded in instructions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.dex.code_units import CodeUnits
from repro.dex.constants import NO_INDEX, AccessFlags, EncodedValueType, shorty_of
from repro.dex.instructions import Instruction, iter_instructions
from repro.dex.opcodes import IndexKind
from repro.errors import DexError


# ---------------------------------------------------------------------------
# Human-readable reference types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class MethodRef:
    """Fully-qualified method reference (descriptor language)."""

    class_desc: str
    name: str
    param_descs: tuple[str, ...]
    return_desc: str

    # cached_property, not property: branch tracing and forced-path
    # matching read the signature once per conditional branch, which
    # made this f-string one of the hottest lines in force execution.
    @cached_property
    def signature(self) -> str:
        params = "".join(self.param_descs)
        return f"{self.class_desc}->{self.name}({params}){self.return_desc}"

    @property
    def shorty(self) -> str:
        return shorty_of(self.return_desc) + "".join(
            shorty_of(p) for p in self.param_descs
        )

    def __str__(self) -> str:
        return self.signature


@dataclass(frozen=True, order=True)
class FieldRef:
    """Fully-qualified field reference (descriptor language)."""

    class_desc: str
    name: str
    type_desc: str

    @cached_property
    def signature(self) -> str:
        return f"{self.class_desc}->{self.name}:{self.type_desc}"

    def __str__(self) -> str:
        return self.signature


# ---------------------------------------------------------------------------
# Pool entry structures (index based, like the binary format)
# ---------------------------------------------------------------------------


@dataclass
class DexProto:
    """Method prototype: return type and parameter types."""

    return_type_idx: int
    param_type_idxs: tuple[int, ...] = ()


@dataclass
class DexFieldId:
    class_idx: int
    type_idx: int
    name_idx: int


@dataclass
class DexMethodId:
    class_idx: int
    proto_idx: int
    name_idx: int


@dataclass
class EncodedValue:
    """A static-field initial value (subset of encoded_value)."""

    kind: EncodedValueType
    value: object = None

    @classmethod
    def of_int(cls, value: int) -> "EncodedValue":
        return cls(EncodedValueType.INT, value)

    @classmethod
    def of_string_idx(cls, idx: int) -> "EncodedValue":
        return cls(EncodedValueType.STRING, idx)

    @classmethod
    def null(cls) -> "EncodedValue":
        return cls(EncodedValueType.NULL, None)

    @classmethod
    def of_bool(cls, value: bool) -> "EncodedValue":
        return cls(EncodedValueType.BOOLEAN, bool(value))


@dataclass
class TryBlock:
    """One try region with its typed catch handlers.

    ``handlers`` pairs a type index with a handler address; ``catch_all``
    is the address of the ``catch-all`` handler, if any.
    """

    start_addr: int
    insn_count: int
    handlers: list[tuple[int, int]] = field(default_factory=list)
    catch_all: int | None = None

    @property
    def end_addr(self) -> int:
        return self.start_addr + self.insn_count

    def covers(self, dex_pc: int) -> bool:
        return self.start_addr <= dex_pc < self.end_addr


@dataclass
class CodeItem:
    """Executable body of a method: registers and the code-unit array.

    ``insns`` is always a generation-tracked
    :class:`~repro.dex.code_units.CodeUnits` array — plain lists are
    wrapped on assignment (including in ``__init__``), so the
    interpreter's predecode cache observes *every* way the live array
    can change: in-place patches bump the generation, and wholesale
    replacement swaps in a fresh array with a fresh cache.
    """

    registers_size: int
    ins_size: int
    outs_size: int
    insns: list[int] = field(default_factory=list)
    tries: list[TryBlock] = field(default_factory=list)

    def __setattr__(self, name: str, value) -> None:
        if name == "insns" and not isinstance(value, CodeUnits):
            value = CodeUnits(value)
        super().__setattr__(name, value)

    def instructions(self) -> list[tuple[int, Instruction]]:
        """Decode all (dex_pc, instruction) pairs, skipping payloads."""
        return iter_instructions(self.insns)

    def copy(self) -> "CodeItem":
        insns = self.insns
        return CodeItem(
            self.registers_size,
            self.ins_size,
            self.outs_size,
            # Copies share the decode store (content-validated on use),
            # so replay runtimes warm-start instead of re-decoding.
            insns.copy() if isinstance(insns, CodeUnits) else list(insns),
            [
                TryBlock(t.start_addr, t.insn_count, list(t.handlers), t.catch_all)
                for t in self.tries
            ],
        )


@dataclass
class EncodedField:
    field_idx: int
    access_flags: int = int(AccessFlags.PUBLIC)


@dataclass
class EncodedMethod:
    method_idx: int
    access_flags: int = int(AccessFlags.PUBLIC)
    code: CodeItem | None = None


@dataclass
class ClassDef:
    """One class definition with its members."""

    class_idx: int
    access_flags: int = int(AccessFlags.PUBLIC)
    superclass_idx: int = NO_INDEX
    interfaces: list[int] = field(default_factory=list)
    source_file_idx: int = NO_INDEX
    static_fields: list[EncodedField] = field(default_factory=list)
    instance_fields: list[EncodedField] = field(default_factory=list)
    direct_methods: list[EncodedMethod] = field(default_factory=list)
    virtual_methods: list[EncodedMethod] = field(default_factory=list)
    static_values: list[EncodedValue] = field(default_factory=list)

    def all_methods(self) -> list[EncodedMethod]:
        return list(self.direct_methods) + list(self.virtual_methods)

    def all_fields(self) -> list[EncodedField]:
        return list(self.static_fields) + list(self.instance_fields)


# ---------------------------------------------------------------------------
# The DexFile itself
# ---------------------------------------------------------------------------


class DexFile:
    """Mutable DEX model with pool interning helpers."""

    def __init__(self) -> None:
        self.strings: list[str] = []
        self.type_ids: list[int] = []  # -> string index
        self.protos: list[DexProto] = []
        self.field_ids: list[DexFieldId] = []
        self.method_ids: list[DexMethodId] = []
        self.class_defs: list[ClassDef] = []
        self._string_index: dict[str, int] = {}
        self._type_index: dict[int, int] = {}
        self._proto_index: dict[tuple[int, tuple[int, ...]], int] = {}
        self._field_index: dict[tuple[int, int, int], int] = {}
        self._method_index: dict[tuple[int, int, int], int] = {}
        # index -> resolved FieldRef/MethodRef, keyed ("f"/"m", idx);
        # dropped whenever canonicalize reorders the pools.
        self._ref_cache: dict[tuple[str, int], object] = {}

    def with_own_pools(self) -> "DexFile":
        """A DEX that shares this one's class definitions and code but
        interns into pools of its own.

        A reveal runs on one: the runtime never writes a class
        definition or a code item (a loaded method runs on a copy of
        its code), but self-modifying code interns strings and refs
        into the DEX its class came from.  The copy is never written:
        canonicalizing it would remap the code it shares.
        """
        dex = DexFile()
        dex.strings = list(self.strings)
        dex.type_ids = list(self.type_ids)
        dex.protos = list(self.protos)
        dex.field_ids = list(self.field_ids)
        dex.method_ids = list(self.method_ids)
        dex.class_defs = list(self.class_defs)
        dex._string_index = dict(self._string_index)
        dex._type_index = dict(self._type_index)
        dex._proto_index = dict(self._proto_index)
        dex._field_index = dict(self._field_index)
        dex._method_index = dict(self._method_index)
        dex._ref_cache = dict(self._ref_cache)
        return dex

    # -- interning ---------------------------------------------------------

    def intern_string(self, value: str) -> int:
        idx = self._string_index.get(value)
        if idx is None:
            idx = len(self.strings)
            self.strings.append(value)
            self._string_index[value] = idx
        return idx

    def intern_type(self, descriptor: str) -> int:
        string_idx = self.intern_string(descriptor)
        idx = self._type_index.get(string_idx)
        if idx is None:
            idx = len(self.type_ids)
            self.type_ids.append(string_idx)
            self._type_index[string_idx] = idx
        return idx

    def intern_proto(self, return_desc: str, param_descs: tuple[str, ...]) -> int:
        ret_idx = self.intern_type(return_desc)
        param_idxs = tuple(self.intern_type(p) for p in param_descs)
        key = (ret_idx, param_idxs)
        idx = self._proto_index.get(key)
        if idx is None:
            idx = len(self.protos)
            self.protos.append(DexProto(ret_idx, param_idxs))
            self._proto_index[key] = idx
        return idx

    def intern_field(self, class_desc: str, name: str, type_desc: str) -> int:
        key = (
            self.intern_type(class_desc),
            self.intern_type(type_desc),
            self.intern_string(name),
        )
        idx = self._field_index.get(key)
        if idx is None:
            idx = len(self.field_ids)
            self.field_ids.append(DexFieldId(*key))
            self._field_index[key] = idx
        return idx

    def intern_method(
        self,
        class_desc: str,
        name: str,
        return_desc: str,
        param_descs: tuple[str, ...] = (),
    ) -> int:
        key = (
            self.intern_type(class_desc),
            self.intern_proto(return_desc, param_descs),
            self.intern_string(name),
        )
        idx = self._method_index.get(key)
        if idx is None:
            idx = len(self.method_ids)
            self.method_ids.append(DexMethodId(*key))
            self._method_index[key] = idx
        return idx

    def intern_method_ref(self, ref: MethodRef) -> int:
        return self.intern_method(
            ref.class_desc, ref.name, ref.return_desc, ref.param_descs
        )

    def intern_field_ref(self, ref: FieldRef) -> int:
        return self.intern_field(ref.class_desc, ref.name, ref.type_desc)

    def intern_shorties(self) -> None:
        """Intern every proto's shorty string: the writer's proto_ids
        point at them, so they must be in the pool before it is laid
        out."""
        for i in range(len(self.protos)):
            return_desc, param_descs = self.proto_descs(i)
            self.intern_string(shorty_of(return_desc) + "".join(
                shorty_of(p) for p in param_descs))

    # -- readable accessors -------------------------------------------------

    def string(self, idx: int) -> str:
        return self.strings[idx]

    def type_descriptor(self, idx: int) -> str:
        return self.strings[self.type_ids[idx]]

    def proto(self, idx: int) -> DexProto:
        return self.protos[idx]

    def proto_descs(self, idx: int) -> tuple[str, tuple[str, ...]]:
        proto = self.protos[idx]
        return (
            self.type_descriptor(proto.return_type_idx),
            tuple(self.type_descriptor(p) for p in proto.param_type_idxs),
        )

    # field_ref / method_ref memoise per index: the interpreter resolves
    # a ref on every field access and invoke, and interning only appends
    # (existing indices keep their meaning).  The memo is dropped by
    # ``_rebuild_indexes`` whenever ``canonicalize`` reorders the pools.

    def field_ref(self, idx: int) -> FieldRef:
        ref = self._ref_cache.get(("f", idx))
        if ref is not None:
            return ref
        fid = self.field_ids[idx]
        ref = FieldRef(
            self.type_descriptor(fid.class_idx),
            self.strings[fid.name_idx],
            self.type_descriptor(fid.type_idx),
        )
        self._ref_cache[("f", idx)] = ref
        return ref

    def method_ref(self, idx: int) -> MethodRef:
        ref = self._ref_cache.get(("m", idx))
        if ref is not None:
            return ref
        ref = self._build_method_ref(idx)
        self._ref_cache[("m", idx)] = ref
        return ref

    def _build_method_ref(self, idx: int) -> MethodRef:
        mid = self.method_ids[idx]
        return_desc, param_descs = self.proto_descs(mid.proto_idx)
        return MethodRef(
            self.type_descriptor(mid.class_idx),
            self.strings[mid.name_idx],
            param_descs,
            return_desc,
        )

    def class_descriptor(self, class_def: ClassDef) -> str:
        return self.type_descriptor(class_def.class_idx)

    def find_class(self, descriptor: str) -> ClassDef | None:
        for class_def in self.class_defs:
            if self.class_descriptor(class_def) == descriptor:
                return class_def
        return None

    def class_descriptors(self) -> list[str]:
        return [self.class_descriptor(c) for c in self.class_defs]

    def method_name(self, encoded: EncodedMethod) -> str:
        return self.method_ref(encoded.method_idx).name

    def iter_methods(self):
        """Yield ``(class_def, encoded_method, method_ref)`` triples."""
        for class_def in self.class_defs:
            for method in class_def.all_methods():
                yield class_def, method, self.method_ref(method.method_idx)

    def total_instruction_count(self) -> int:
        """Number of decoded instructions across all code items."""
        total = 0
        for _cls, method, _ref in self.iter_methods():
            if method.code is not None:
                total += len(method.code.instructions())
        return total

    # -- canonicalization ----------------------------------------------------

    def canonicalize(self) -> dict[IndexKind, list[int]]:
        """Sort pools into binary-format order and remap all references.

        The DEX format requires: string_ids sorted by content, type_ids by
        string index, proto/field/method ids by their component indices and
        class_defs with superclasses before subclasses.  Instructions
        are remapped only when the string, type, field or method pool
        moved, so a file already in that order (one read from bytes, or
        one whose methods :meth:`~repro.dex.builder.DexBuilder.build`
        built) costs the pool sorts alone.  Returns the permutation of
        each pool code indexes (old index -> new).
        """
        string_perm = _permutation(self.strings, key=lambda s: s)
        self.strings = _apply(self.strings, string_perm)
        self.type_ids = [string_perm[s] for s in self.type_ids]

        type_perm = _permutation(self.type_ids, key=lambda s: s)
        self.type_ids = _apply(self.type_ids, type_perm)

        for proto in self.protos:
            proto.return_type_idx = type_perm[proto.return_type_idx]
            proto.param_type_idxs = tuple(
                type_perm[p] for p in proto.param_type_idxs
            )
        proto_perm = _permutation(
            self.protos, key=lambda p: (p.return_type_idx, p.param_type_idxs)
        )
        self.protos = _apply(self.protos, proto_perm)

        for fid in self.field_ids:
            fid.class_idx = type_perm[fid.class_idx]
            fid.type_idx = type_perm[fid.type_idx]
            fid.name_idx = string_perm[fid.name_idx]
        field_perm = _permutation(
            self.field_ids, key=lambda f: (f.class_idx, f.name_idx, f.type_idx)
        )
        self.field_ids = _apply(self.field_ids, field_perm)

        for mid in self.method_ids:
            mid.class_idx = type_perm[mid.class_idx]
            mid.proto_idx = proto_perm[mid.proto_idx]
            mid.name_idx = string_perm[mid.name_idx]
        method_perm = _permutation(
            self.method_ids, key=lambda m: (m.class_idx, m.name_idx, m.proto_idx)
        )
        self.method_ids = _apply(self.method_ids, method_perm)

        for class_def in self.class_defs:
            class_def.class_idx = type_perm[class_def.class_idx]
            if class_def.superclass_idx != NO_INDEX:
                class_def.superclass_idx = type_perm[class_def.superclass_idx]
            class_def.interfaces = [type_perm[i] for i in class_def.interfaces]
            if class_def.source_file_idx != NO_INDEX:
                class_def.source_file_idx = string_perm[class_def.source_file_idx]
            for encoded in class_def.all_fields():
                encoded.field_idx = field_perm[encoded.field_idx]
            for encoded in class_def.all_methods():
                encoded.method_idx = method_perm[encoded.method_idx]
            # static_values parallels static_fields: permute them together.
            paired = sorted(
                zip(
                    class_def.static_fields,
                    class_def.static_values
                    + [EncodedValue.null()]
                    * (len(class_def.static_fields) - len(class_def.static_values)),
                ),
                key=lambda pair: pair[0].field_idx,
            )
            class_def.static_fields = [f for f, _ in paired]
            class_def.static_values = [v for _, v in paired]
            class_def.instance_fields.sort(key=lambda f: f.field_idx)
            class_def.direct_methods.sort(key=lambda m: m.method_idx)
            class_def.virtual_methods.sort(key=lambda m: m.method_idx)
            for value in class_def.static_values:
                if value.kind is EncodedValueType.STRING:
                    value.value = string_perm[value.value]
                elif value.kind is EncodedValueType.TYPE:
                    value.value = type_perm[value.value]
        self._sort_class_defs()

        remap = {
            IndexKind.STRING: string_perm,
            IndexKind.TYPE: type_perm,
            IndexKind.FIELD: field_perm,
            IndexKind.METHOD: method_perm,
        }
        # Code indexes only these pools: identities would rewrite nothing.
        if any(perm != list(range(len(perm))) for perm in remap.values()):
            for _cls, method, _ref in self.iter_methods():
                if method.code is not None:
                    _remap_code(method.code, remap)
        self._rebuild_indexes()
        return remap

    def _sort_class_defs(self) -> None:
        """Topologically order class_defs so superclasses come first."""
        by_type = {c.class_idx: c for c in self.class_defs}
        ordered: list[ClassDef] = []
        visiting: set[int] = set()
        done: set[int] = set()

        def visit(class_def: ClassDef) -> None:
            if class_def.class_idx in done:
                return
            if class_def.class_idx in visiting:
                raise DexError(
                    f"superclass cycle involving "
                    f"{self.class_descriptor(class_def)}"
                )
            visiting.add(class_def.class_idx)
            parents = list(class_def.interfaces)
            if class_def.superclass_idx != NO_INDEX:
                parents.append(class_def.superclass_idx)
            for parent_idx in parents:
                parent = by_type.get(parent_idx)
                if parent is not None:
                    visit(parent)
            visiting.discard(class_def.class_idx)
            done.add(class_def.class_idx)
            ordered.append(class_def)

        for class_def in sorted(self.class_defs, key=lambda c: c.class_idx):
            visit(class_def)
        self.class_defs = ordered

    def _rebuild_indexes(self) -> None:
        self._ref_cache.clear()  # pool order changed: indices mean new refs
        self._string_index = {s: i for i, s in enumerate(self.strings)}
        self._type_index = {s: i for i, s in enumerate(self.type_ids)}
        self._proto_index = {
            (p.return_type_idx, p.param_type_idxs): i
            for i, p in enumerate(self.protos)
        }
        self._field_index = {
            (f.class_idx, f.type_idx, f.name_idx): i
            for i, f in enumerate(self.field_ids)
        }
        self._method_index = {
            (m.class_idx, m.proto_idx, m.name_idx): i
            for i, m in enumerate(self.method_ids)
        }


def _permutation(items: list, key) -> list[int]:
    """Return ``perm`` such that ``perm[old_index] == new_index``."""
    order = sorted(range(len(items)), key=lambda i: key(items[i]))
    perm = [0] * len(items)
    for new_index, old_index in enumerate(order):
        perm[old_index] = new_index
    return perm


def _apply(items: list, perm: list[int]) -> list:
    out = [None] * len(items)
    for old_index, item in enumerate(items):
        out[perm[old_index]] = item
    return out


def _remap_code(code: CodeItem, remap: dict[IndexKind, list[int]]) -> None:
    """Rewrite pool indices embedded in a code item's instructions."""
    for dex_pc, ins in code.instructions():
        kind = ins.opcode.index_kind
        if kind is IndexKind.NONE:
            continue
        new_index = remap[kind][ins.pool_index]
        if new_index == ins.pool_index:
            continue
        encoded = ins.with_pool_index(new_index).encode()
        code.insns[dex_pc : dex_pc + len(encoded)] = encoded
    for try_block in code.tries:
        try_block.handlers = [
            (remap[IndexKind.TYPE][type_idx], addr)
            for type_idx, addr in try_block.handlers
        ]
