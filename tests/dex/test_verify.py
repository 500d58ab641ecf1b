"""Structural verifier negative tests, and the verifier against the
one it replaced, problem for problem."""

import copy

import pytest

from repro.benchsuite import droidbench_samples
from repro.core.config import RevealConfig
from repro.core.pipeline import reveal_apk
from repro.dex import DexBuilder, assemble, verify_dex
from repro.dex.constants import NO_INDEX
from repro.dex.formats import FORMAT_UNITS
from repro.dex.instructions import Instruction
from repro.dex.opcodes import OPCODE_TABLE, IndexKind, opcode_for
from repro.dex.payloads import (
    FillArrayDataPayload,
    PackedSwitchPayload,
    SparseSwitchPayload,
    decode_payload,
)
from repro.dex.verify import assert_valid
from repro.errors import VerificationError


def _valid_dex():
    return assemble("""
.class public Lv/Ok;
.super Ljava/lang/Object;
.method public static f(I)I
    .registers 3
    const/4 v0, 1
    add-int v0, v0, p0
    return v0
.end method
""")


class TestAcceptsValid:
    def test_clean_file_has_no_problems(self):
        dex = _valid_dex()
        dex.canonicalize()
        assert verify_dex(dex) == []

    def test_assert_valid_passes(self):
        dex = _valid_dex()
        dex.canonicalize()
        assert_valid(dex)


class TestRejectsBroken:
    def _method(self, dex):
        return dex.class_defs[0].all_methods()[0]

    def test_unsorted_string_pool(self):
        dex = _valid_dex()
        dex.canonicalize()
        if len(dex.strings) >= 2:
            dex.strings[0], dex.strings[1] = dex.strings[1], dex.strings[0]
        problems = verify_dex(dex)
        assert any("string pool" in p for p in problems)

    def test_fall_off_end(self):
        dex = _valid_dex()
        dex.canonicalize()
        method = self._method(dex)
        # Drop the trailing return.
        ret = Instruction.make("return", 0)
        assert method.code.insns[-1:] == ret.encode()
        method.code.insns = method.code.insns[:-1]
        problems = verify_dex(dex)
        assert any("fall off" in p for p in problems)

    def test_branch_to_middle_of_instruction(self):
        builder = DexBuilder()
        cls = builder.add_class("Lv/Mid;")
        mb = cls.method("f", "V", (), locals_count=2)
        mb.const(0, 1000)  # const/16: 2 units
        mb.label("x")
        mb.ret_void()
        mb.build()
        dex = builder.build()
        dex.canonicalize()
        method = self._method(dex)
        # Overwrite the return with a goto into the const/16's second unit.
        goto = Instruction.make("goto", -1)
        method.code.insns[2:3] = goto.encode()
        problems = verify_dex(dex)
        assert any("branch target" in p for p in problems)

    def test_pool_index_out_of_range(self):
        dex = _valid_dex()
        dex.canonicalize()
        method = self._method(dex)
        bad = Instruction.make("const-string", 0, 9999).encode()
        method.code.insns[0:1] = bad + [0]  # keep unit count stable-ish
        # Re-pad: replace first const/4 (1 unit) with const-string (2 units)
        # then drop one trailing unit to keep the return reachable.
        method.code.insns = bad + method.code.insns[3:]
        problems = verify_dex(dex)
        assert any("out of range" in p for p in problems)

    def test_register_out_of_bounds(self):
        builder = DexBuilder()
        cls = builder.add_class("Lv/Reg;")
        mb = cls.method("f", "V", (), locals_count=2)
        mb.raw("move", 0, 1)
        mb.ret_void()
        mb.build()
        dex = builder.build()
        dex.canonicalize()
        method = self._method(dex)
        method.code.registers_size = 1  # v1 now out of bounds
        problems = verify_dex(dex)
        assert any("registers" in p for p in problems)

    def test_misaligned_handler(self):
        dex = assemble("""
.class public Lv/H;
.super Ljava/lang/Object;
.method public static f(I)I
    .registers 3
    :s
    const/16 v0, 7
    div-int v0, v0, p0
    :e
    return v0
    :h
    const/4 v0, -1
    return v0
    .catch Ljava/lang/ArithmeticException; {:s .. :e} :h
.end method
""")
        dex.canonicalize()
        method = dex.class_defs[0].all_methods()[0]
        method.code.tries[0].handlers = [
            (method.code.tries[0].handlers[0][0], 1)  # inside const/16
        ]
        problems = verify_dex(dex)
        assert any("handler" in p for p in problems)

    def test_assert_valid_raises(self):
        dex = _valid_dex()
        dex.canonicalize()
        self._method(dex).code.insns = self._method(dex).code.insns[:-1]
        with pytest.raises(VerificationError):
            assert_valid(dex)

    def test_empty_method_body(self):
        builder = DexBuilder()
        cls = builder.add_class("Lv/E;")
        mb = cls.method("f", "V", (), locals_count=1)
        mb.ret_void()
        mb.build()
        dex = builder.build()
        dex.canonicalize()
        dex.class_defs[0].all_methods()[0].code.insns = []
        problems = verify_dex(dex)
        assert any("empty" in p for p in problems)


# -- the verifier against the one it replaced ---------------------------------


def _reference_verify_dex(dex):
    """``verify_dex`` as it was before it sized the pools once per file
    and read register positions from a per-format table, kept verbatim
    as the reference."""
    problems = []
    _reference_check_pools(dex, problems)
    for class_def in dex.class_defs:
        descriptor = _safe_descriptor(dex, class_def.class_idx)
        if class_def.superclass_idx != NO_INDEX and not (
            0 <= class_def.superclass_idx < len(dex.type_ids)
        ):
            problems.append(f"{descriptor}: superclass index out of range")
        if len(class_def.static_values) > len(class_def.static_fields):
            problems.append(f"{descriptor}: more static values than static fields")
        for method in class_def.all_methods():
            if not 0 <= method.method_idx < len(dex.method_ids):
                problems.append(f"{descriptor}: method index out of range")
                continue
            ref = dex.method_ref(method.method_idx)
            if method.code is not None:
                _reference_check_code(dex, f"{ref}", method.code, problems)
    return problems


def _reference_check_pools(dex, problems):
    if dex.strings != sorted(dex.strings):
        problems.append("string pool not sorted")
    if dex.type_ids != sorted(dex.type_ids):
        problems.append("type pool not sorted")
    for string_idx in dex.type_ids:
        if not 0 <= string_idx < len(dex.strings):
            problems.append("type id references missing string")
    proto_keys = [(p.return_type_idx, p.param_type_idxs) for p in dex.protos]
    if proto_keys != sorted(proto_keys):
        problems.append("proto pool not sorted")
    field_keys = [(f.class_idx, f.name_idx, f.type_idx) for f in dex.field_ids]
    if field_keys != sorted(field_keys):
        problems.append("field pool not sorted")
    method_keys = [(m.class_idx, m.name_idx, m.proto_idx) for m in dex.method_ids]
    if method_keys != sorted(method_keys):
        problems.append("method pool not sorted")
    seen_types = set()
    for class_def in dex.class_defs:
        if class_def.class_idx in seen_types:
            problems.append(
                f"duplicate class def {_safe_descriptor(dex, class_def.class_idx)}"
            )
        seen_types.add(class_def.class_idx)
        if class_def.superclass_idx != NO_INDEX:
            parent = next(
                (c for c in dex.class_defs if c.class_idx == class_def.superclass_idx),
                None,
            )
            if parent is not None and dex.class_defs.index(parent) > dex.class_defs.index(class_def):
                problems.append(
                    f"class {_safe_descriptor(dex, class_def.class_idx)} "
                    "defined before its superclass"
                )


def _reference_check_code(dex, where, code, problems):
    if code.ins_size > code.registers_size:
        problems.append(f"{where}: ins_size exceeds registers_size")
    try:
        instructions = code.instructions()
    except Exception as exc:
        problems.append(f"{where}: undecodable instructions ({exc})")
        return
    if not instructions:
        problems.append(f"{where}: empty instruction stream")
        return
    boundaries = {dex_pc for dex_pc, _ in instructions}
    for dex_pc, ins in instructions:
        _reference_check_instruction(dex, where, code, dex_pc, ins, boundaries,
                                     problems)
    trailing = [ins for _pc, ins in instructions]
    while trailing and trailing[-1].name == "nop":
        trailing.pop()
    if trailing:
        last_ins = trailing[-1]
        if last_ins.opcode.can_continue and not last_ins.opcode.is_branch:
            problems.append(f"{where}: control can fall off the end")
    for try_block in code.tries:
        if try_block.start_addr not in boundaries:
            problems.append(f"{where}: try start {try_block.start_addr} misaligned")
        if try_block.end_addr > len(code.insns):
            problems.append(f"{where}: try end beyond code")
        for type_idx, addr in try_block.handlers:
            if not 0 <= type_idx < len(dex.type_ids):
                problems.append(f"{where}: catch type index out of range")
            if addr not in boundaries:
                problems.append(f"{where}: handler address {addr} misaligned")
        if try_block.catch_all is not None and try_block.catch_all not in boundaries:
            problems.append(f"{where}: catch-all address misaligned")


def _reference_check_instruction(dex, where, code, dex_pc, ins, boundaries,
                                 problems):
    kind = ins.opcode.index_kind
    pools = {
        IndexKind.STRING: len(dex.strings),
        IndexKind.TYPE: len(dex.type_ids),
        IndexKind.FIELD: len(dex.field_ids),
        IndexKind.METHOD: len(dex.method_ids),
    }
    if kind is not IndexKind.NONE:
        if not 0 <= ins.pool_index < pools[kind]:
            problems.append(
                f"{where}@{dex_pc}: {ins.name} {kind.value} index "
                f"{ins.pool_index} out of range"
            )
    if ins.opcode.is_branch and not ins.opcode.is_switch:
        target = dex_pc + ins.branch_target
        if target not in boundaries:
            problems.append(
                f"{where}@{dex_pc}: branch target {target} not an instruction"
            )
    if ins.opcode.is_switch or ins.name == "fill-array-data":
        target = dex_pc + ins.branch_target
        try:
            payload = decode_payload(code.insns, target)
        except Exception as exc:
            problems.append(f"{where}@{dex_pc}: bad payload ({exc})")
            return
        if ins.opcode.is_switch:
            for rel in payload.targets:
                if dex_pc + rel not in boundaries:
                    problems.append(
                        f"{where}@{dex_pc}: switch target {dex_pc + rel} misaligned"
                    )
    _reference_check_registers(where, code, dex_pc, ins, problems)


def _reference_check_registers(where, code, dex_pc, ins, problems):
    regs = []
    fmt = ins.opcode.fmt
    if fmt in ("35c", "3rc"):
        regs = ins.invoke_registers
    elif fmt in ("12x", "11n", "22t", "22s", "22c"):
        count = {"12x": 2, "11n": 1, "22t": 2, "22s": 2, "22c": 2}[fmt]
        regs = list(ins.operands[:count])
    elif fmt in ("11x", "21t", "21s", "21h", "21c", "31i", "31t", "31c", "51l", "22x"):
        regs = [ins.operands[0]]
        if fmt == "22x":
            regs.append(ins.operands[1])
    elif fmt == "23x":
        regs = list(ins.operands)
    elif fmt == "22b":
        regs = list(ins.operands[:2])
    elif fmt == "32x":
        regs = list(ins.operands)
    for reg in regs:
        if reg >= code.registers_size:
            problems.append(
                f"{where}@{dex_pc}: {ins.name} uses v{reg} "
                f"but method has {code.registers_size} registers"
            )


def _safe_descriptor(dex, type_idx):
    try:
        return dex.type_descriptor(type_idx)
    except Exception:
        return f"type@{type_idx}"


def _same_problems(dex):
    """The problem list, which must equal the reference's, order included."""
    problems = verify_dex(dex)
    assert problems == _reference_verify_dex(dex)
    return problems


@pytest.fixture(scope="module")
def revealed_droidbench():
    """Every DroidBench sample's revealed DEX, without and with force
    execution."""
    return [(sample.name, force,
             reveal_apk(sample.build_apk(), RevealConfig(
                 device=sample.device,
                 use_force_execution=force)).reassembled_dex)
            for sample in droidbench_samples() for force in (False, True)]


_BASE = """
.class public Lv/Base;
.super Ljava/lang/Object;
.field public x:I
.method public constructor <init>()V
    .registers 1
    invoke-direct {p0}, Ljava/lang/Object;-><init>()V
    return-void
.end method

.class public Lv/Sub;
.super Lv/Base;
.method public constructor <init>()V
    .registers 1
    invoke-direct {p0}, Lv/Base;-><init>()V
    return-void
.end method
.method public static f(I)I
    .registers 6
    :s
    const-string v0, "hello"
    new-instance v1, Lv/Sub;
    invoke-direct {v1}, Lv/Sub;-><init>()V
    iget v2, v1, Lv/Base;->x:I
    if-eqz p0, :skip
    packed-switch p0, :sw
    :skip
    const/4 v3, 2
    new-array v3, v3, [I
    fill-array-data v3, :arr
    div-int v2, v2, p0
    :e
    return v2
    :h
    const/4 v2, -1
    return v2
    :all
    const/4 v2, -2
    return v2
    :sw
    .packed-switch 0
        :skip
        :e
    .end packed-switch
    :arr
    .array-data 4
        1 2
    .end array-data
    .catch Ljava/lang/ArithmeticException; {:s .. :e} :h
    .catchall {:s .. :e} :all
.end method
"""


def _base():
    dex = assemble(_BASE)
    dex.canonicalize()
    return dex


def _code(dex):
    """The code item of ``Lv/Sub;->f``."""
    for _cls, method, ref in dex.iter_methods():
        if ref.name == "f":
            return method.code
    raise AssertionError("no f")


def _at(code, name):
    """``(dex_pc, instruction)`` of the first ``name`` in ``code``."""
    return next((pc, ins) for pc, ins in code.instructions() if ins.name == name)


def _patch(code, dex_pc, ins):
    units = ins.encode()
    code.insns[dex_pc:dex_pc + len(units)] = units


def _mid_instruction(code):
    """A pc inside a multi-unit instruction."""
    return next(pc + 1 for pc, ins in code.instructions() if ins.unit_count > 1)


def _index_out_of_range(kind):
    def mutate(dex):
        pools = {IndexKind.STRING: dex.strings, IndexKind.TYPE: dex.type_ids,
                 IndexKind.FIELD: dex.field_ids,
                 IndexKind.METHOD: dex.method_ids}
        code = _code(dex)
        pc, ins = next((pc, ins) for pc, ins in code.instructions()
                       if ins.opcode.index_kind is kind)
        _patch(code, pc, ins.with_pool_index(len(pools[kind])))
        return f"{kind.value} index {len(pools[kind])} out of range"
    return mutate


def _branch_into_an_instruction(dex):
    code = _code(dex)
    pc, ins = _at(code, "if-eqz")
    _patch(code, pc, ins.with_branch_target(_mid_instruction(code) - pc))
    return "not an instruction"


def _misaligned_switch_target(dex):
    code = _code(dex)
    pc, ins = _at(code, "packed-switch")
    payload_pc = pc + ins.branch_target
    code.insns[payload_pc + 4] = _mid_instruction(code) - pc  # first target
    return "switch target"


def _undecodable_payload(dex):
    code = _code(dex)
    pc, ins = _at(code, "fill-array-data")
    # Past the end of the code, where no payload can be read.
    _patch(code, pc, ins.with_branch_target(len(code.insns) + 8 - pc))
    return "bad payload"


def _misaligned_try_start(dex):
    code = _code(dex)
    code.tries[0].start_addr = _mid_instruction(code)
    return "try start"


def _misaligned_handler(dex):
    code = _code(dex)
    type_idx, _addr = code.tries[0].handlers[0]
    code.tries[0].handlers[0] = (type_idx, _mid_instruction(code))
    return "handler address"


def _misaligned_catch_all(dex):
    code = _code(dex)
    code.tries[0].catch_all = _mid_instruction(code)
    return "catch-all address misaligned"


def _catch_type_out_of_range(dex):
    code = _code(dex)
    _type_idx, addr = code.tries[0].handlers[0]
    code.tries[0].handlers[0] = (len(dex.type_ids), addr)
    return "catch type index out of range"


def _try_end_beyond_code(dex):
    code = _code(dex)
    code.tries[0].insn_count = len(code.insns) + 1
    return "try end beyond code"


def _falls_off_the_end(dex):
    # A constructor whose return-void became a nop ends in its invoke.
    code = dex.class_defs[0].all_methods()[0].code
    assert _at(code, "return-void")[0] == len(code.insns) - 1
    code.insns[-1] = 0
    return "fall off the end"


def _subclass_first(dex):
    dex.class_defs.reverse()
    return "defined before its superclass"


def _duplicate_subclass(dex):
    # A second, equal def of the subclass ahead of everything: both
    # copies stand where the first of them does.
    dex.class_defs.insert(0, copy.deepcopy(dex.class_defs[-1]))
    dex.class_defs.append(copy.deepcopy(dex.class_defs[0]))
    return "duplicate class def"


def _superclass_out_of_range(dex):
    dex.class_defs[-1].superclass_idx = len(dex.type_ids)
    return "superclass index out of range"


def _ins_above_registers(dex):
    code = _code(dex)
    code.ins_size = code.registers_size + 1
    return "ins_size exceeds registers_size"


def _undecodable_instruction(dex):
    code = _code(dex)
    code.insns[0] = 0x3E  # an unassigned opcode byte
    return "undecodable instructions"


def _unsorted_strings(dex):
    dex.strings.reverse()
    return "string pool not sorted"


_MUTATIONS = {
    **{f"{kind.value}-index": _index_out_of_range(kind)
       for kind in IndexKind if kind is not IndexKind.NONE},
    "branch-into-an-instruction": _branch_into_an_instruction,
    "misaligned-switch-target": _misaligned_switch_target,
    "undecodable-payload": _undecodable_payload,
    "misaligned-try-start": _misaligned_try_start,
    "misaligned-handler": _misaligned_handler,
    "misaligned-catch-all": _misaligned_catch_all,
    "catch-type-out-of-range": _catch_type_out_of_range,
    "try-end-beyond-code": _try_end_beyond_code,
    "falls-off-the-end": _falls_off_the_end,
    "subclass-first": _subclass_first,
    "duplicate-subclass": _duplicate_subclass,
    "superclass-out-of-range": _superclass_out_of_range,
    "ins-above-registers": _ins_above_registers,
    "undecodable-instruction": _undecodable_instruction,
    "unsorted-strings": _unsorted_strings,
}


#: Per register-carrying format, its operands with every register ``r``
#: and every other operand valid in the base program.
_REGISTER_FORMS = {
    "12x": lambda r: (r, r), "11n": lambda r: (r, 0), "11x": lambda r: (r,),
    "22x": lambda r: (r, r), "21t": lambda r: (r, 2), "21s": lambda r: (r, 0),
    "21h": lambda r: (r, 0), "21c": lambda r: (r, 0),
    "23x": lambda r: (r, r, r), "22b": lambda r: (r, r, 0),
    "22t": lambda r: (r, r, 2), "22s": lambda r: (r, r, 0),
    "22c": lambda r: (r, r, 0), "32x": lambda r: (r, r),
    "31i": lambda r: (r, 0), "31t": lambda r: (r, 4), "31c": lambda r: (r, 0),
    "35c": lambda r: (0, r, r), "3rc": lambda r: (0, r, 2),
    "51l": lambda r: (r, 0),
}


_PAYLOADS = {
    "fill-array-data": FillArrayDataPayload(4, bytes(4)),
    "packed-switch": PackedSwitchPayload(0, [-4]),
    "sparse-switch": SparseSwitchPayload([7], [-4]),
}


class TestAgainstTheReferenceVerifier:
    def test_droidbench_reveals_verify_as_the_reference_does(
            self, revealed_droidbench):
        assert len(revealed_droidbench) == 2 * 134
        for name, force, dex in revealed_droidbench:
            assert _same_problems(dex) == [], (name, force)

    def test_droidbench_inputs_verify_as_the_reference_does(self):
        for sample in droidbench_samples():
            for dex in sample.build_apk().dex_files:
                _same_problems(dex)

    def test_the_base_program_verifies_clean(self):
        assert _same_problems(_base()) == []

    @pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
    def test_a_mutation_is_reported_as_the_reference_reports_it(
            self, mutation):
        dex = _base()
        expected = _MUTATIONS[mutation](dex)
        problems = _same_problems(dex)
        assert any(expected in problem for problem in problems), problems

    def test_every_format_with_registers_is_mutated(self):
        no_registers = {"10x", "10t", "20t", "30t"}
        assert set(_REGISTER_FORMS) == set(FORMAT_UNITS) - no_registers

    @pytest.mark.parametrize("fmt", sorted(_REGISTER_FORMS))
    def test_a_register_at_registers_size_is_reported_as_the_reference_does(
            self, fmt):
        # Every opcode of the format, then return-void, then (for 31t)
        # the payload it reads; each register operand is registers_size.
        for info in OPCODE_TABLE:
            if info is None or info.fmt != fmt:
                continue
            dex = _base()
            code = _code(dex)
            size = 15  # fits every register slot, nibbles included
            units = Instruction(info, _REGISTER_FORMS[fmt](size)).encode()
            units += Instruction(opcode_for("return-void"), ()).encode()
            if fmt == "31t":  # the payload its opcode reads, at unit 4
                units += [0] * (4 - len(units))
                units += _PAYLOADS[info.name].encode()
            code.insns = units
            code.tries.clear()
            code.registers_size, code.ins_size = size, 0
            problems = _same_problems(dex)
            assert any(f"uses v{size} but method has {size} registers"
                       in problem for problem in problems), (info.name, problems)


def _point_at_payload_of(name, other):
    """The base program with ``name``'s payload offset aimed at the
    payload ``other`` reads."""
    dex = _base()
    code = _code(dex)
    pc, ins = _at(code, name)
    other_pc, other_ins = _at(code, other)
    payload_pc = other_pc + other_ins.branch_target
    _patch(code, pc, ins.with_branch_target(payload_pc - pc))
    return dex


class TestPayloadKinds:
    """A 31t must point at a payload of its own kind."""

    def test_a_switch_at_an_array_payload_is_reported(self):
        problems = verify_dex(
            _point_at_payload_of("packed-switch", "fill-array-data"))
        assert any("packed-switch points at a FillArrayDataPayload" in p
                   for p in problems), problems

    def test_an_array_fill_at_a_switch_payload_is_reported(self):
        problems = verify_dex(
            _point_at_payload_of("fill-array-data", "packed-switch"))
        assert any("fill-array-data points at a PackedSwitchPayload" in p
                   for p in problems), problems
