"""Instruction model tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dex import OPCODES, Instruction, iter_instructions
from repro.dex.formats import FORMAT_UNITS
from repro.dex.opcodes import (
    OPCODE_TABLE,
    PAYLOAD_IDENTS,
    IndexKind,
    opcode_for,
)
from repro.dex.payloads import (
    FillArrayDataPayload,
    PackedSwitchPayload,
    SparseSwitchPayload,
    payload_unit_count,
)
from repro.errors import DexFormatError


class TestMakeAndDecode:
    def test_make_by_mnemonic(self):
        ins = Instruction.make("const/4", 2, 5)
        assert ins.name == "const/4"
        assert ins.operands == (2, 5)

    def test_unknown_mnemonic(self):
        with pytest.raises(DexFormatError):
            Instruction.make("bogus-op", 0)

    def test_decode_at_offset(self):
        units = Instruction.make("nop").encode() + Instruction.make(
            "const/16", 1, 300
        ).encode()
        ins = Instruction.decode_at(units, 1)
        assert ins.name == "const/16"
        assert ins.operands == (1, 300)

    def test_encode_decode_identity(self):
        for name, operands in [
            ("move", (1, 2)),
            ("return-void", ()),
            ("if-eq", (3, 4, -10)),
            ("goto/16", (400,)),
            ("invoke-virtual", (9, 0, 1)),
            ("add-int/lit8", (0, 1, 17)),
            ("const-wide", (2, 2**40)),
        ]:
            ins = Instruction.make(name, *operands)
            again = Instruction.decode_at(ins.encode(), 0)
            assert again == ins


class TestAccessors:
    def test_branch_target_if(self):
        assert Instruction.make("if-ge", 1, 2, 7).branch_target == 7

    def test_branch_target_goto(self):
        assert Instruction.make("goto", -3).branch_target == -3

    def test_branch_target_switch(self):
        assert Instruction.make("packed-switch", 0, 40).branch_target == 40

    def test_branch_target_on_non_branch(self):
        with pytest.raises(DexFormatError):
            _ = Instruction.make("nop").branch_target

    def test_with_branch_target(self):
        ins = Instruction.make("if-ltz", 5, 2)
        assert ins.with_branch_target(9).branch_target == 9
        assert ins.with_branch_target(9).operands[0] == 5

    def test_pool_index_21c(self):
        assert Instruction.make("const-string", 0, 77).pool_index == 77

    def test_pool_index_35c_leads(self):
        assert Instruction.make("invoke-static", 12, 0).pool_index == 12

    def test_with_pool_index(self):
        ins = Instruction.make("sget-object", 0, 5)
        assert ins.with_pool_index(6).pool_index == 6

    def test_pool_index_on_plain_op(self):
        with pytest.raises(DexFormatError):
            _ = Instruction.make("add-int", 0, 1, 2).pool_index

    def test_invoke_registers_35c(self):
        ins = Instruction.make("invoke-virtual", 3, 4, 5, 6)
        assert ins.invoke_registers == [4, 5, 6]

    def test_invoke_registers_range(self):
        ins = Instruction.make("invoke-virtual/range", 3, 10, 4)
        assert ins.invoke_registers == [10, 11, 12, 13]

    def test_literal(self):
        assert Instruction.make("const/16", 0, -5).literal == -5
        assert Instruction.make("add-int/lit8", 0, 1, 9).literal == 9


#: Code-unit widths of DEX 035 opcodes 0x00-0x5b as inclusive
#: ``(first, last, units)`` ranges, written from the Dalvik bytecode
#: format table and checked against an independent parser's table of
#: the same opcodes (BANG's ``DEX_035_OPCODES``).
DEX_035_WIDTHS = [
    (0x00, 0x01, 1),  # nop, move
    (0x02, 0x02, 2),  # move/from16
    (0x03, 0x03, 3),  # move/16
    (0x04, 0x04, 1),  # move-wide
    (0x05, 0x05, 2),  # move-wide/from16
    (0x06, 0x06, 3),  # move-wide/16
    (0x07, 0x07, 1),  # move-object
    (0x08, 0x08, 2),  # move-object/from16
    (0x09, 0x09, 3),  # move-object/16
    (0x0a, 0x12, 1),  # move-result*, move-exception, return*, const/4
    (0x13, 0x13, 2),  # const/16
    (0x14, 0x14, 3),  # const
    (0x15, 0x16, 2),  # const/high16, const-wide/16
    (0x17, 0x17, 3),  # const-wide/32
    (0x18, 0x18, 5),  # const-wide
    (0x19, 0x1a, 2),  # const-wide/high16, const-string
    (0x1b, 0x1b, 3),  # const-string/jumbo
    (0x1c, 0x1c, 2),  # const-class
    (0x1d, 0x1e, 1),  # monitor-enter, monitor-exit
    (0x1f, 0x20, 2),  # check-cast, instance-of
    (0x21, 0x21, 1),  # array-length
    (0x22, 0x23, 2),  # new-instance, new-array
    (0x24, 0x26, 3),  # filled-new-array(/range), fill-array-data
    (0x27, 0x28, 1),  # throw, goto
    (0x29, 0x29, 2),  # goto/16
    (0x2a, 0x2c, 3),  # goto/32, packed-switch, sparse-switch
    (0x2d, 0x3d, 2),  # cmp*, if-test, if-testz
    (0x44, 0x5b, 2),  # aget*, aput*, iget*
]

#: Opcode values DEX 035 leaves unassigned inside 0x00-0x5b.
DEX_035_UNUSED = range(0x3e, 0x44)


class TestOpcodeWidthsAgainstTheSpec:
    """The collector, the interpreter's decode cache and the reassembler
    all step through code by instruction width; here the opcode table's
    widths meet a second source of truth."""

    def test_widths_cover_0x00_to_0x5b_once(self):
        values = [op for first, last, _ in DEX_035_WIDTHS
                  for op in range(first, last + 1)]
        assert sorted(values + list(DEX_035_UNUSED)) == list(range(0x5c))
        assert len(values) == 86

    @pytest.mark.parametrize("first,last,units", DEX_035_WIDTHS,
                             ids=[f"{f:#04x}-{l:#04x}"
                                  for f, l, _ in DEX_035_WIDTHS])
    def test_width_matches_dex_035(self, first, last, units):
        for op in range(first, last + 1):
            info = OPCODE_TABLE[op]
            assert info is not None, f"{op:#04x} unassigned"
            assert FORMAT_UNITS[info.fmt] == units, \
                f"{op:#04x} {info.name} ({info.fmt})"

    def test_unused_values_are_unassigned(self):
        assert [op for op in DEX_035_UNUSED
                if OPCODE_TABLE[op] is not None] == []


class TestOpcodeProperties:
    def test_every_opcode_has_format(self):
        from repro.dex.formats import FORMAT_UNITS

        for info in OPCODES.values():
            assert info.fmt in FORMAT_UNITS

    def test_branch_classification(self):
        assert opcode_for("if-eq").is_conditional_branch
        assert opcode_for("goto").is_branch
        assert not opcode_for("goto").is_conditional_branch
        assert opcode_for("packed-switch").is_switch
        assert not opcode_for("nop").is_branch

    def test_can_continue(self):
        assert not opcode_for("return-void").can_continue
        assert not opcode_for("throw").can_continue
        assert not opcode_for("goto").can_continue
        assert opcode_for("if-eq").can_continue
        assert opcode_for("invoke-virtual").can_continue

    def test_index_kinds(self):
        assert opcode_for("const-string").index_kind is IndexKind.STRING
        assert opcode_for("new-instance").index_kind is IndexKind.TYPE
        assert opcode_for("iget").index_kind is IndexKind.FIELD
        assert opcode_for("invoke-super").index_kind is IndexKind.METHOD
        assert opcode_for("add-int").index_kind is IndexKind.NONE

    def test_opcode_values_unique_and_byte_sized(self):
        assert len({i.value for i in OPCODES.values()}) == len(OPCODES)
        assert all(0 <= i.value <= 0xFF for i in OPCODES.values())


class TestIterInstructions:
    def test_linear_stream(self):
        units = []
        for name, ops in [("const/4", (0, 1)), ("const/4", (1, 2)),
                          ("add-int", (2, 0, 1)), ("return", (2,))]:
            units += Instruction.make(name, *ops).encode()
        decoded = iter_instructions(units)
        assert [ins.name for _pc, ins in decoded] == [
            "const/4", "const/4", "add-int", "return"
        ]
        assert [pc for pc, _ in decoded] == [0, 1, 2, 4]

    def test_payload_region_is_skipped(self):
        from repro.dex.payloads import PackedSwitchPayload

        switch = Instruction.make("packed-switch", 0, 4)
        ret = Instruction.make("return-void")
        units = switch.encode() + ret.encode()
        units += PackedSwitchPayload(0, [4, 4]).encode()
        names = [ins.name for _pc, ins in iter_instructions(units)]
        assert names == ["packed-switch", "return-void"]


# -- one walk vs the two-pass reference ---------------------------------------


def _two_pass_reference(units: list[int]) -> list[tuple[int, Instruction]]:
    """The walk ``iter_instructions`` replaced: a first pass decodes every
    instruction to find the payloads 31t instructions reference (and any
    payload met at an instruction boundary), a second decodes them all
    again, skipping those payloads."""
    positions: dict[int, int] = {}
    pos = 0
    while pos < len(units):
        if pos in positions:
            pos += positions[pos]
            continue
        unit = units[pos]
        if unit in PAYLOAD_IDENTS and (unit & 0xFF) == 0 and pos > 0:
            positions[pos] = payload_unit_count(units, pos)
            pos += positions[pos]
            continue
        ins = Instruction.decode_at(units, pos)
        if ins.opcode.fmt == "31t":
            target = pos + ins.branch_target
            if 0 <= target < len(units):
                positions[target] = payload_unit_count(units, target)
        pos += ins.unit_count
    out: list[tuple[int, Instruction]] = []
    pos = 0
    while pos < len(units):
        if pos in positions:
            pos += positions[pos]
            continue
        ins = Instruction.decode_at(units, pos)
        out.append((pos, ins))
        pos += ins.unit_count
    return out


def _outcome(walk, units):
    """A walk's result, or the type and message of what it raised."""
    try:
        return walk(units)
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc)


def _decodes(units) -> tuple[list, int]:
    """``iter_instructions(units)`` and how many times it decoded."""
    calls = []
    decode_at = Instruction.decode_at
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Instruction, "decode_at", classmethod(
            lambda cls, u, pos: calls.append(pos) or decode_at(u, pos)))
        out = iter_instructions(units)
    return out, len(calls)


_OPCODES = [info for info in OPCODE_TABLE if info is not None]
_S32 = st.integers(-(1 << 31), (1 << 31) - 1)


@st.composite
def _sparse_payloads(draw) -> SparseSwitchPayload:
    keys = draw(st.lists(_S32, max_size=4, unique=True))
    targets = draw(st.lists(_S32, min_size=len(keys), max_size=len(keys)))
    return SparseSwitchPayload(sorted(keys), targets)


@st.composite
def _fill_payloads(draw) -> FillArrayDataPayload:
    width = draw(st.sampled_from([1, 2, 4, 8]))
    count = draw(st.integers(0, 4))
    return FillArrayDataPayload(
        width, draw(st.binary(min_size=width * count, max_size=width * count)))


_PAYLOADS = st.one_of(
    st.builds(PackedSwitchPayload, _S32, st.lists(_S32, max_size=4)),
    _sparse_payloads(),
    _fill_payloads(),
)


@st.composite
def _code_bodies(draw) -> list[int]:
    """Instructions of every opcode with drawn operands, then the
    payloads their 31t instructions point at: some shared, some behind
    a nop that aligns them, and some never referenced at all."""
    units: list[int] = []
    switches: list[int] = []
    for info in draw(st.lists(st.sampled_from(_OPCODES), min_size=1,
                              max_size=16)):
        # A nop's high byte stays 0: 0x0100-0x0300 are payload idents.
        high = 0 if info.value == 0 else draw(st.integers(0, 0xFF))
        if info.fmt == "31t":
            switches.append(len(units))
        units.append(info.value | high << 8)
        need = FORMAT_UNITS[info.fmt] - 1
        units += draw(st.lists(st.integers(0, 0xFFFF), min_size=need,
                               max_size=need))
    starts: list[int] = []
    for pc in switches:
        if starts and draw(st.booleans()):
            target = draw(st.sampled_from(starts))
        else:
            if len(units) % 2 and draw(st.booleans()):
                units.append(0)  # nop pad to a 4-byte boundary
            target = len(units)
            starts.append(target)
            units += draw(_PAYLOADS).encode()
        offset = (target - pc) & 0xFFFFFFFF
        units[pc + 1], units[pc + 2] = offset & 0xFFFF, offset >> 16
    for payload in draw(st.lists(_PAYLOADS, max_size=2)):
        units += payload.encode()
    return units


class TestOneWalk:
    """``iter_instructions`` finds payloads in the walk that decodes:
    the same pairs, or the same error, as the two-pass walk it
    replaced, with each instruction decoded once."""

    @settings(max_examples=300, deadline=None)
    @given(_code_bodies())
    def test_matches_two_pass_on_generated_bodies(self, units):
        out, decodes = _decodes(units)
        assert out == _two_pass_reference(units)
        assert decodes == len(out)

    @settings(max_examples=600, deadline=None)
    @given(_code_bodies(), st.data())
    def test_matches_two_pass_under_one_unit_mutations(self, units, data):
        at = data.draw(st.integers(0, len(units) - 1))
        units[at] = data.draw(st.one_of(
            st.integers(0, 0xFFFF),
            st.sampled_from(sorted(PAYLOAD_IDENTS)),
            st.sampled_from(_OPCODES).map(lambda info: info.value),
        ))
        expected = _outcome(_two_pass_reference, units)
        assert _outcome(iter_instructions, units) == expected
        if isinstance(expected, list):
            out, decodes = _decodes(units)
            assert decodes == len(out)

    def test_matches_two_pass_on_real_method_bodies(self):
        from repro.benchsuite import droidbench_samples
        from repro.benchsuite.codegen import generate_app

        apks = [generate_app("d.walk", 3000, seed=7).apk]
        apks += [sample.build_apk() for sample in droidbench_samples()]
        bodies = 0
        for apk in apks:
            for dex in apk.dex_files:
                for _cls, method, _ref in dex.iter_methods():
                    if method.code is None:
                        continue
                    units = list(method.code.insns)
                    out, decodes = _decodes(units)
                    assert out == _two_pass_reference(units)
                    assert decodes == len(out)
                    bodies += 1
        assert bodies > 1000
