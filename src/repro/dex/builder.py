"""Programmatic DEX construction with labels and automatic layout.

:class:`DexBuilder` / :class:`ClassBuilder` / :class:`MethodBuilder` let
test programs be written as readable Python while still producing real
code-unit arrays.  The method builder performs two-pass layout: record
pseudo-instructions (branch operands may be label names), assign each a
``dex_pc``, then patch relative offsets and append aligned switch /
array payloads.

A method builder left unbuilt is built by :meth:`DexBuilder.build`,
after the pools are sorted into binary-format order: its pool operands
are then encoded once, against their final indices, and
:func:`~repro.dex.writer.write_dex` has no instruction to remap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dex.constants import AccessFlags, EncodedValueType, NO_INDEX
from repro.dex.formats import ENCODERS
from repro.dex.opcodes import IndexKind, OpcodeInfo, opcode_for
from repro.dex.payloads import (
    FillArrayDataPayload,
    PackedSwitchPayload,
    SparseSwitchPayload,
)
from repro.dex.sigs import (
    method_arg_width,
    parse_field_signature,
    parse_method_signature,
)
from repro.dex.structures import (
    ClassDef,
    CodeItem,
    DexFile,
    EncodedField,
    EncodedMethod,
    EncodedValue,
    FieldRef,
    MethodRef,
    TryBlock,
)
from repro.errors import AssemblyError


@dataclass(slots=True)
class _Pending:
    """One not-yet-laid-out instruction, with the opcode its mnemonic
    named when it was emitted: layout and encoding read that entry's
    unit count and format, never the mnemonic again."""

    opcode: OpcodeInfo
    operands: tuple
    label: str | None = None  # branch/payload target label, if any
    pc: int = -1


@dataclass(slots=True)
class _PendingPayload:
    label: str
    payload: object  # one of the payload classes (targets may hold labels)
    pc: int = -1


@dataclass(slots=True)
class _PendingTry:
    start_label: str
    end_label: str
    handlers: list[tuple[str | None, str]] = field(default_factory=list)


class DexBuilder:
    """Top-level builder producing a :class:`DexFile`."""

    def __init__(self) -> None:
        self.dex = DexFile()
        #: Every method builder made, for :meth:`build` to finish the
        #: ones not built yet.
        self._methods: list[MethodBuilder] = []

    def add_class(
        self,
        descriptor: str,
        superclass: str | None = "Ljava/lang/Object;",
        access: int = int(AccessFlags.PUBLIC),
        interfaces: tuple[str, ...] = (),
        source_file: str | None = None,
    ) -> "ClassBuilder":
        if self.dex.find_class(descriptor) is not None:
            raise AssemblyError(f"duplicate class {descriptor}")
        class_def = ClassDef(
            class_idx=self.dex.intern_type(descriptor),
            access_flags=access,
            superclass_idx=(
                self.dex.intern_type(superclass) if superclass else NO_INDEX
            ),
            interfaces=[self.dex.intern_type(i) for i in interfaces],
            source_file_idx=(
                self.dex.intern_string(source_file) if source_file else NO_INDEX
            ),
        )
        self.dex.class_defs.append(class_def)
        return ClassBuilder(self, class_def, descriptor)

    def build(self) -> DexFile:
        """The DexFile, every method built.

        Method builders not built yet are built here, after the pools
        (with the shorty strings the writer adds) are sorted into
        binary-format order, so their code needs no remap.  A file
        whose methods were all built already is returned as it stands.
        """
        unbuilt = [mb for mb in self._methods
                   if mb.has_body and not mb._built]
        self._methods = []
        if unbuilt:
            dex = self.dex
            for mb in unbuilt:
                mb._intern_handler_types()
            dex.intern_shorties()
            renumber = dex.canonicalize()
            for mb in unbuilt:
                mb._build(renumber)
        return self.dex


class ClassBuilder:
    """Builder for one class definition."""

    def __init__(self, parent: DexBuilder, class_def: ClassDef, descriptor: str) -> None:
        self.parent = parent
        self.class_def = class_def
        self.descriptor = descriptor

    @property
    def dex(self) -> DexFile:
        return self.parent.dex

    def add_static_field(
        self,
        name: str,
        type_desc: str,
        access: int = int(AccessFlags.PUBLIC | AccessFlags.STATIC),
        initial: object = None,
    ) -> FieldRef:
        field_idx = self.dex.intern_field(self.descriptor, name, type_desc)
        self.class_def.static_fields.append(EncodedField(field_idx, access))
        self.class_def.static_values.append(self._encode_initial(type_desc, initial))
        return FieldRef(self.descriptor, name, type_desc)

    def _encode_initial(self, type_desc: str, initial: object) -> EncodedValue:
        if initial is None:
            if type_desc in ("J",):
                return EncodedValue(EncodedValueType.LONG, 0)
            if type_desc in ("F",):
                return EncodedValue(EncodedValueType.FLOAT, 0.0)
            if type_desc in ("D",):
                return EncodedValue(EncodedValueType.DOUBLE, 0.0)
            if type_desc in ("Z",):
                return EncodedValue.of_bool(False)
            if type_desc in ("B", "S", "C", "I"):
                return EncodedValue.of_int(0)
            return EncodedValue.null()
        if isinstance(initial, bool):
            return EncodedValue.of_bool(initial)
        if isinstance(initial, int):
            kind = EncodedValueType.LONG if type_desc == "J" else EncodedValueType.INT
            return EncodedValue(kind, initial)
        if isinstance(initial, float):
            kind = EncodedValueType.DOUBLE if type_desc == "D" else EncodedValueType.FLOAT
            return EncodedValue(kind, initial)
        if isinstance(initial, str):
            return EncodedValue.of_string_idx(self.dex.intern_string(initial))
        raise AssemblyError(f"unsupported static initial value {initial!r}")

    def add_instance_field(
        self, name: str, type_desc: str, access: int = int(AccessFlags.PUBLIC)
    ) -> FieldRef:
        field_idx = self.dex.intern_field(self.descriptor, name, type_desc)
        self.class_def.instance_fields.append(EncodedField(field_idx, access))
        return FieldRef(self.descriptor, name, type_desc)

    def method(
        self,
        name: str,
        return_desc: str = "V",
        param_descs: tuple[str, ...] = (),
        access: int = int(AccessFlags.PUBLIC),
        locals_count: int = 4,
        native: bool = False,
        abstract: bool = False,
    ) -> "MethodBuilder":
        if native:
            access |= int(AccessFlags.NATIVE)
        if abstract:
            access |= int(AccessFlags.ABSTRACT)
        if name in ("<init>", "<clinit>"):
            access |= int(AccessFlags.CONSTRUCTOR)
            if name == "<clinit>":
                access |= int(AccessFlags.STATIC)
        method_idx = self.dex.intern_method(
            self.descriptor, name, return_desc, param_descs
        )
        is_static = bool(access & AccessFlags.STATIC)
        ref = MethodRef(self.descriptor, name, param_descs, return_desc)
        encoded = EncodedMethod(method_idx, access, None)
        is_direct = (
            is_static
            or bool(access & AccessFlags.PRIVATE)
            or name in ("<init>", "<clinit>")
        )
        if is_direct:
            self.class_def.direct_methods.append(encoded)
        else:
            self.class_def.virtual_methods.append(encoded)
        mb = MethodBuilder(self, encoded, ref, is_static, locals_count,
                           has_body=not (native or abstract))
        self.parent._methods.append(mb)
        return mb


class MethodBuilder:
    """Two-pass instruction emitter for one method body."""

    def __init__(
        self,
        class_builder: ClassBuilder,
        encoded: EncodedMethod,
        ref: MethodRef,
        is_static: bool,
        locals_count: int,
        has_body: bool,
    ) -> None:
        self.class_builder = class_builder
        self.encoded = encoded
        self.ref = ref
        self.is_static = is_static
        self.locals_count = locals_count
        self.has_body = has_body
        self.ins_size = method_arg_width(ref, is_static)
        self._pending: list[_Pending] = []
        self._labels: dict[str, int] = {}  # label -> index into _pending
        self._payloads: list[_PendingPayload] = []
        self._tries: list[_PendingTry] = []
        self._outs = 0
        self._built = False

    @property
    def dex(self) -> DexFile:
        return self.class_builder.dex

    # -- register helpers ---------------------------------------------------

    def p(self, n: int) -> int:
        """Parameter register ``pN`` mapped to its absolute index."""
        return self.locals_count + n

    @property
    def registers_size(self) -> int:
        return self.locals_count + self.ins_size

    # -- emission primitives --------------------------------------------------

    def raw(self, mnemonic: str, *operands: int) -> "MethodBuilder":
        """Emit an instruction with fully-resolved operands."""
        self._pending.append(_Pending(opcode_for(mnemonic), operands))
        return self

    def label(self, name: str) -> "MethodBuilder":
        if name in self._labels:
            raise AssemblyError(f"duplicate label :{name} in {self.ref}")
        self._labels[name] = len(self._pending)
        return self

    def _emit_branch(self, mnemonic: str, operands: tuple, label: str) -> None:
        self._pending.append(
            _Pending(opcode_for(mnemonic), operands, label=label))

    # -- convenience emitters ---------------------------------------------------

    def nop(self) -> "MethodBuilder":
        return self.raw("nop")

    def const(self, reg: int, value: int) -> "MethodBuilder":
        """Emit the narrowest non-wide integer const for ``value``."""
        if reg < 16 and -8 <= value <= 7:
            return self.raw("const/4", reg, value)
        if -32768 <= value <= 32767:
            return self.raw("const/16", reg, value)
        if value & 0xFFFF == 0 and -(1 << 31) <= value < (1 << 31):
            return self.raw("const/high16", reg, value >> 16)
        return self.raw("const", reg, value)

    def const_wide(self, reg: int, value: int) -> "MethodBuilder":
        if -32768 <= value <= 32767:
            return self.raw("const-wide/16", reg, value)
        if -(1 << 31) <= value < (1 << 31):
            return self.raw("const-wide/32", reg, value)
        return self.raw("const-wide", reg, value)

    def const_string(self, reg: int, value: str) -> "MethodBuilder":
        return self.raw("const-string", reg, self.dex.intern_string(value))

    def move(self, dst: int, src: int) -> "MethodBuilder":
        return self.raw("move" if max(dst, src) < 16 else "move/from16", dst, src)

    def move_object(self, dst: int, src: int) -> "MethodBuilder":
        name = "move-object" if max(dst, src) < 16 else "move-object/from16"
        return self.raw(name, dst, src)

    def new_instance(self, reg: int, descriptor: str) -> "MethodBuilder":
        return self.raw("new-instance", reg, self.dex.intern_type(descriptor))

    def check_cast(self, reg: int, descriptor: str) -> "MethodBuilder":
        return self.raw("check-cast", reg, self.dex.intern_type(descriptor))

    def invoke(self, kind: str, signature: str, *regs: int) -> "MethodBuilder":
        """Emit ``invoke-<kind>`` for a full method signature string."""
        ref = parse_method_signature(signature)
        method_idx = self.dex.intern_method_ref(ref)
        width = method_arg_width(ref, is_static=(kind == "static"))
        self._outs = max(self._outs, width)
        if len(regs) > 5 or any(r > 15 for r in regs):
            first = regs[0] if regs else 0
            if list(regs) != list(range(first, first + len(regs))):
                raise AssemblyError(
                    f"range invoke needs contiguous registers, got {regs}"
                )
            return self.raw(f"invoke-{kind}/range", method_idx, first, len(regs))
        return self.raw(f"invoke-{kind}", method_idx, *regs)

    def field_op(self, mnemonic: str, *regs_then_sig) -> "MethodBuilder":
        """Emit iget/iput/sget/sput; last positional arg is the signature."""
        *regs, signature = regs_then_sig
        ref = parse_field_signature(signature)
        field_idx = self.dex.intern_field_ref(ref)
        return self.raw(mnemonic, *regs, field_idx)

    def goto_(self, label: str) -> "MethodBuilder":
        self._emit_branch("goto/16", (), label)
        return self

    def if_op(self, cond: str, reg_a: int, reg_b: int, label: str) -> "MethodBuilder":
        self._emit_branch(f"if-{cond}", (reg_a, reg_b), label)
        return self

    def if_zero(self, cond: str, reg: int, label: str) -> "MethodBuilder":
        self._emit_branch(f"if-{cond}z", (reg,), label)
        return self

    def packed_switch(
        self, reg: int, first_key: int, case_labels: list[str]
    ) -> "MethodBuilder":
        data_label = f"__pswitch_{len(self._payloads)}"
        self._emit_branch("packed-switch", (reg,), data_label)
        self._payloads.append(
            _PendingPayload(data_label, PackedSwitchPayload(first_key, list(case_labels)))
        )
        return self

    def sparse_switch(
        self, reg: int, cases: list[tuple[int, str]]
    ) -> "MethodBuilder":
        data_label = f"__sswitch_{len(self._payloads)}"
        self._emit_branch("sparse-switch", (reg,), data_label)
        keys = [k for k, _ in cases]
        labels = [lbl for _, lbl in cases]
        self._payloads.append(
            _PendingPayload(data_label, SparseSwitchPayload(keys, labels))
        )
        return self

    def fill_array_data(
        self, reg: int, element_width: int, values: list[int]
    ) -> "MethodBuilder":
        data_label = f"__array_{len(self._payloads)}"
        self._emit_branch("fill-array-data", (reg,), data_label)
        raw = b"".join(
            (v & ((1 << (8 * element_width)) - 1)).to_bytes(element_width, "little")
            for v in values
        )
        self._payloads.append(
            _PendingPayload(data_label, FillArrayDataPayload(element_width, raw))
        )
        return self

    def ret_void(self) -> "MethodBuilder":
        return self.raw("return-void")

    def ret(self, reg: int) -> "MethodBuilder":
        return self.raw("return", reg)

    def ret_object(self, reg: int) -> "MethodBuilder":
        return self.raw("return-object", reg)

    def ret_wide(self, reg: int) -> "MethodBuilder":
        return self.raw("return-wide", reg)

    def throw(self, reg: int) -> "MethodBuilder":
        return self.raw("throw", reg)

    def try_range(
        self,
        start_label: str,
        end_label: str,
        handlers: list[tuple[str | None, str]],
    ) -> "MethodBuilder":
        """Register a try region; handlers map exception type -> label.

        ``None`` as the type descriptor means catch-all.
        """
        self._tries.append(_PendingTry(start_label, end_label, list(handlers)))
        return self

    # -- finalization -------------------------------------------------------------

    def build(self) -> EncodedMethod:
        """Lay out, patch branches, attach payloads and finish the method."""
        return self._build(None)

    def _intern_handler_types(self) -> None:
        """Intern what :meth:`build` would: the try handlers' types."""
        for pending_try in self._tries:
            for type_desc, _label in pending_try.handlers:
                if type_desc is not None:
                    self.dex.intern_type(type_desc)

    def _build(self, renumber: dict[IndexKind, list[int]] | None
               ) -> EncodedMethod:
        """:meth:`build`, each pool operand mapped through ``renumber``
        (old index -> new, by pool) when given: the pools were sorted
        after the operands were recorded."""
        if self._built:
            return self.encoded
        self._built = True
        if not self.has_body:
            return self.encoded

        # Pass 1: assign dex_pc to each instruction.
        pc = 0
        for pending in self._pending:
            pending.pc = pc
            pc += pending.opcode.unit_count
        code_end_pc = pc
        # Payloads go after the code, each 2-unit aligned.
        payload_pcs: dict[str, int] = {}
        for pending_payload in self._payloads:
            if pc % 2:
                pc += 1  # will be filled with a nop unit
            pending_payload.pc = pc
            payload_pcs[pending_payload.label] = pc
            pc += self._payload_units(pending_payload.payload)

        label_pcs = self._resolve_label_pcs(payload_pcs, code_end_pc)

        # Pass 2: encode with resolved relative offsets.
        units: list[int] = []
        for pending in self._pending:
            info = pending.opcode
            operands = pending.operands
            if pending.label is not None:
                target_pc = label_pcs[pending.label]
                operands = (*operands, target_pc - pending.pc)
            if renumber is not None:
                kind = info.index_kind
                if kind is not IndexKind.NONE:
                    new_index = renumber[kind]
                    if info.fmt in ("35c", "3rc"):  # the pool index leads
                        operands = (new_index[operands[0]], *operands[1:])
                    else:
                        operands = (*operands[:-1], new_index[operands[-1]])
            encoded = ENCODERS[info.fmt](info.value, operands)
            if len(units) != pending.pc:
                raise AssemblyError(
                    f"layout drift in {self.ref}: expected pc {pending.pc}, "
                    f"got {len(units)}"
                )
            units.extend(encoded)
        for pending_payload in self._payloads:
            while len(units) < pending_payload.pc:
                units.append(0)  # alignment nop
            payload = self._resolve_payload(
                pending_payload, label_pcs
            )
            units.extend(payload.encode())

        code = CodeItem(
            registers_size=self.registers_size,
            ins_size=self.ins_size,
            outs_size=self._outs,
            insns=units,
        )
        for pending_try in self._tries:
            start = label_pcs[pending_try.start_label]
            end = label_pcs[pending_try.end_label]
            try_block = TryBlock(start, end - start)
            for type_desc, handler_label in pending_try.handlers:
                addr = label_pcs[handler_label]
                if type_desc is None:
                    try_block.catch_all = addr
                else:
                    try_block.handlers.append(
                        (self.dex.intern_type(type_desc), addr)
                    )
            code.tries.append(try_block)
        self.encoded.code = code
        return self.encoded

    def _payload_units(self, payload) -> int:
        if isinstance(payload, PackedSwitchPayload):
            return 4 + 2 * len(payload.targets)
        if isinstance(payload, SparseSwitchPayload):
            return 2 + 4 * len(payload.keys)
        if isinstance(payload, FillArrayDataPayload):
            return payload.unit_count()
        raise AssemblyError(f"unknown payload {payload!r}")

    def _resolve_label_pcs(
        self, payload_pcs: dict[str, int], code_end_pc: int
    ) -> dict[str, int]:
        label_pcs: dict[str, int] = {}
        for name, index in self._labels.items():
            if index >= len(self._pending):
                # Label after the last instruction: legal as a try-region end.
                label_pcs[name] = code_end_pc
            else:
                label_pcs[name] = self._pending[index].pc
        # Payload labels win over instruction-stream labels of the same name:
        # smali declares the payload label in the instruction stream but the
        # data itself is laid out after the code.
        label_pcs.update(payload_pcs)
        for pending in self._pending:
            if pending.label is not None and pending.label not in label_pcs:
                raise AssemblyError(
                    f"undefined label :{pending.label} in {self.ref}"
                )
        for pending_try in self._tries:
            for label in (
                pending_try.start_label,
                pending_try.end_label,
                *(h[1] for h in pending_try.handlers),
            ):
                if label not in label_pcs:
                    raise AssemblyError(f"undefined label :{label} in {self.ref}")
        return label_pcs

    def _resolve_payload(self, pending: _PendingPayload, label_pcs: dict[str, int]):
        payload = pending.payload
        # The switch instruction that references this payload:
        switch_pc = next(
            p.pc for p in self._pending if p.label == pending.label
        )
        if isinstance(payload, PackedSwitchPayload):
            targets = [label_pcs[lbl] - switch_pc for lbl in payload.targets]
            return PackedSwitchPayload(payload.first_key, targets)
        if isinstance(payload, SparseSwitchPayload):
            targets = [label_pcs[lbl] - switch_pc for lbl in payload.targets]
            return SparseSwitchPayload(list(payload.keys), targets)
        return payload
