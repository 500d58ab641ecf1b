"""Instruction format encode/decode tests."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dex import formats
from repro.dex.instructions import Instruction
from repro.dex.opcodes import OPCODE_TABLE, OpcodeInfo
from repro.errors import DexEncodeError

_OP = 0x42  # arbitrary opcode byte for raw format tests


class TestFixedCases:
    def test_10x(self):
        assert formats.encode("10x", 0x0E, ()) == [0x0E]
        assert formats.decode("10x", [0x0E], 0) == ()

    def test_12x_packs_nibbles(self):
        units = formats.encode("12x", 0x01, (3, 12))
        assert units == [0x01 | (3 << 8) | (12 << 12)]
        assert formats.decode("12x", units, 0) == (3, 12)

    def test_11n_negative_literal(self):
        units = formats.encode("11n", 0x12, (0, -8))
        assert formats.decode("11n", units, 0) == (0, -8)

    def test_21s_sign(self):
        units = formats.encode("21s", 0x13, (5, -32768))
        assert formats.decode("21s", units, 0) == (5, -32768)

    def test_22b_negative_literal(self):
        units = formats.encode("22b", 0xD8, (1, 2, -128))
        assert formats.decode("22b", units, 0) == (1, 2, -128)

    def test_22t_branch_offset(self):
        units = formats.encode("22t", 0x32, (1, 2, -100))
        assert formats.decode("22t", units, 0) == (1, 2, -100)

    def test_30t_wide_branch(self):
        units = formats.encode("30t", 0x2A, (-70000,))
        assert formats.decode("30t", units, 0) == (-70000,)

    def test_31i_full_word(self):
        units = formats.encode("31i", 0x14, (7, -2**31))
        assert formats.decode("31i", units, 0) == (7, -2**31)

    def test_51l_long_literal(self):
        value = -(2**63) + 12345
        units = formats.encode("51l", 0x18, (3, value))
        assert len(units) == 5
        assert formats.decode("51l", units, 0) == (3, value)

    def test_35c_register_list(self):
        units = formats.encode("35c", 0x6E, (0x1234, 1, 2, 3))
        index, *regs = formats.decode("35c", units, 0)
        assert index == 0x1234
        assert regs == [1, 2, 3]

    def test_35c_five_registers(self):
        units = formats.encode("35c", 0x6E, (7, 0, 1, 2, 3, 4))
        assert formats.decode("35c", units, 0) == (7, 0, 1, 2, 3, 4)

    def test_35c_zero_registers(self):
        units = formats.encode("35c", 0x71, (9,))
        assert formats.decode("35c", units, 0) == (9,)

    def test_3rc_range(self):
        units = formats.encode("3rc", 0x74, (0x55, 16, 6))
        assert formats.decode("3rc", units, 0) == (0x55, 16, 6)


class TestRangeChecks:
    def test_12x_register_too_large(self):
        with pytest.raises(DexEncodeError):
            formats.encode("12x", _OP, (16, 0))

    def test_11n_literal_out_of_range(self):
        with pytest.raises(DexEncodeError):
            formats.encode("11n", _OP, (0, 8))

    def test_10t_branch_too_far(self):
        with pytest.raises(DexEncodeError):
            formats.encode("10t", _OP, (200,))

    def test_35c_too_many_registers(self):
        with pytest.raises(DexEncodeError):
            formats.encode("35c", _OP, (0, 1, 2, 3, 4, 5, 6))

    def test_35c_register_above_15(self):
        with pytest.raises(DexEncodeError):
            formats.encode("35c", _OP, (0, 16))

    def test_unknown_format(self):
        with pytest.raises(DexEncodeError):
            formats.encode("99z", _OP, ())


_FORMAT_STRATEGIES = {
    "12x": st.tuples(st.integers(0, 15), st.integers(0, 15)),
    "11n": st.tuples(st.integers(0, 15), st.integers(-8, 7)),
    "11x": st.tuples(st.integers(0, 255)),
    "10t": st.tuples(st.integers(-128, 127)),
    "20t": st.tuples(st.integers(-32768, 32767)),
    "22x": st.tuples(st.integers(0, 255), st.integers(0, 65535)),
    "21t": st.tuples(st.integers(0, 255), st.integers(-32768, 32767)),
    "21s": st.tuples(st.integers(0, 255), st.integers(-32768, 32767)),
    "21c": st.tuples(st.integers(0, 255), st.integers(0, 65535)),
    "23x": st.tuples(*(st.integers(0, 255),) * 3),
    "22b": st.tuples(st.integers(0, 255), st.integers(0, 255),
                     st.integers(-128, 127)),
    "22t": st.tuples(st.integers(0, 15), st.integers(0, 15),
                     st.integers(-32768, 32767)),
    "22s": st.tuples(st.integers(0, 15), st.integers(0, 15),
                     st.integers(-32768, 32767)),
    "22c": st.tuples(st.integers(0, 15), st.integers(0, 15),
                     st.integers(0, 65535)),
    "32x": st.tuples(st.integers(0, 65535), st.integers(0, 65535)),
    "30t": st.tuples(st.integers(-(2**31), 2**31 - 1)),
    "31i": st.tuples(st.integers(0, 255), st.integers(-(2**31), 2**31 - 1)),
    "31t": st.tuples(st.integers(0, 255), st.integers(-(2**31), 2**31 - 1)),
    "31c": st.tuples(st.integers(0, 255), st.integers(0, 2**32 - 1)),
    "3rc": st.tuples(st.integers(0, 65535), st.integers(0, 65535),
                     st.integers(0, 255)),
    "51l": st.tuples(st.integers(0, 255), st.integers(-(2**63), 2**63 - 1)),
}


@pytest.mark.parametrize("fmt", sorted(_FORMAT_STRATEGIES))
def test_roundtrip_property(fmt):
    strategy = _FORMAT_STRATEGIES[fmt]

    @given(strategy)
    def check(operands):
        units = formats.encode(fmt, _OP, tuple(operands))
        assert len(units) == formats.FORMAT_UNITS[fmt]
        assert all(0 <= u <= 0xFFFF for u in units)
        assert formats.decode(fmt, units, 0) == tuple(operands)

    check()


# -- the per-format encoders and opcode facts against the code they replaced


def _reference_check_range(name, value, lo, hi):
    if not lo <= value <= hi:
        raise DexEncodeError(f"{name} operand {value} out of range [{lo}, {hi}]")


def _reference_encode(fmt, opcode, operands):
    """The chain of format tests ``formats.encode`` was before each
    format got its own encoder, kept verbatim as the reference."""
    _check_range = _reference_check_range

    def _u16(value):
        return value & 0xFFFF

    op = opcode & 0xFF
    if fmt == "10x":
        return [op]
    if fmt == "12x":
        a, b = operands
        _check_range(fmt, a, 0, 15)
        _check_range(fmt, b, 0, 15)
        return [op | (a << 8) | (b << 12)]
    if fmt == "11n":
        a, lit = operands
        _check_range(fmt, a, 0, 15)
        _check_range(fmt, lit, -8, 7)
        return [op | (a << 8) | ((lit & 0xF) << 12)]
    if fmt == "11x":
        (a,) = operands
        _check_range(fmt, a, 0, 255)
        return [op | (a << 8)]
    if fmt == "10t":
        (target,) = operands
        _check_range(fmt, target, -128, 127)
        return [op | ((target & 0xFF) << 8)]
    if fmt == "20t":
        (target,) = operands
        _check_range(fmt, target, -32768, 32767)
        return [op, _u16(target)]
    if fmt == "22x":
        a, b = operands
        _check_range(fmt, a, 0, 255)
        _check_range(fmt, b, 0, 65535)
        return [op | (a << 8), b]
    if fmt in ("21t", "21s"):
        a, lit = operands
        _check_range(fmt, a, 0, 255)
        _check_range(fmt, lit, -32768, 32767)
        return [op | (a << 8), _u16(lit)]
    if fmt == "21h":
        a, lit = operands
        _check_range(fmt, a, 0, 255)
        _check_range(fmt, lit, -32768, 32767)
        return [op | (a << 8), _u16(lit)]
    if fmt == "21c":
        a, index = operands
        _check_range(fmt, a, 0, 255)
        _check_range(fmt, index, 0, 65535)
        return [op | (a << 8), index]
    if fmt == "23x":
        a, b, c = operands
        for reg in (a, b, c):
            _check_range(fmt, reg, 0, 255)
        return [op | (a << 8), b | (c << 8)]
    if fmt == "22b":
        a, b, lit = operands
        _check_range(fmt, a, 0, 255)
        _check_range(fmt, b, 0, 255)
        _check_range(fmt, lit, -128, 127)
        return [op | (a << 8), b | ((lit & 0xFF) << 8)]
    if fmt in ("22t", "22s"):
        a, b, lit = operands
        _check_range(fmt, a, 0, 15)
        _check_range(fmt, b, 0, 15)
        _check_range(fmt, lit, -32768, 32767)
        return [op | (a << 8) | (b << 12), _u16(lit)]
    if fmt == "22c":
        a, b, index = operands
        _check_range(fmt, a, 0, 15)
        _check_range(fmt, b, 0, 15)
        _check_range(fmt, index, 0, 65535)
        return [op | (a << 8) | (b << 12), index]
    if fmt == "32x":
        a, b = operands
        _check_range(fmt, a, 0, 65535)
        _check_range(fmt, b, 0, 65535)
        return [op, a, b]
    if fmt == "30t":
        (target,) = operands
        _check_range(fmt, target, -(1 << 31), (1 << 31) - 1)
        value = target & 0xFFFFFFFF
        return [op, value & 0xFFFF, value >> 16]
    if fmt in ("31i", "31t", "31c"):
        a, lit = operands
        _check_range(fmt, a, 0, 255)
        if fmt == "31c":
            _check_range(fmt, lit, 0, 0xFFFFFFFF)
        else:
            _check_range(fmt, lit, -(1 << 31), (1 << 31) - 1)
        value = lit & 0xFFFFFFFF
        return [op | (a << 8), value & 0xFFFF, value >> 16]
    if fmt == "35c":
        index, regs = operands[0], operands[1:]
        count = len(regs)
        if count > 5:
            raise DexEncodeError(f"35c supports at most 5 registers, got {count}")
        _check_range(fmt, index, 0, 65535)
        for reg in regs:
            _check_range(fmt, reg, 0, 15)
        padded = list(regs) + [0] * (5 - count)
        g = padded[4]
        unit0 = op | (g << 8) | (count << 12)
        unit2 = padded[0] | (padded[1] << 4) | (padded[2] << 8) | (padded[3] << 12)
        return [unit0, index, unit2]
    if fmt == "3rc":
        index, first_reg, count = operands
        _check_range(fmt, index, 0, 65535)
        _check_range(fmt, first_reg, 0, 65535)
        _check_range(fmt, count, 0, 255)
        return [op | (count << 8), index, first_reg]
    if fmt == "51l":
        a, lit = operands
        _check_range(fmt, a, 0, 255)
        _check_range(fmt, lit, -(1 << 63), (1 << 63) - 1)
        value = lit & 0xFFFFFFFFFFFFFFFF
        return [
            op | (a << 8),
            value & 0xFFFF,
            (value >> 16) & 0xFFFF,
            (value >> 32) & 0xFFFF,
            (value >> 48) & 0xFFFF,
        ]
    raise DexEncodeError(f"unknown instruction format {fmt!r}")


_OPCODES = [info for info in OPCODE_TABLE if info is not None]

_NIBBLE, _BYTE, _SHORT = (0, 15), (0, 255), (0, 65535)
_S16, _S32 = (-32768, 32767), (-(2**31), 2**31 - 1)

#: Per format, the valid range of each operand, in operand order (35c,
#: a pool index then 0-7 register nibbles, is drawn on its own).
_OPERAND_RANGES = {
    "10x": (),
    "12x": (_NIBBLE, _NIBBLE),
    "11n": (_NIBBLE, (-8, 7)),
    "11x": (_BYTE,),
    "10t": ((-128, 127),),
    "20t": (_S16,),
    "22x": (_BYTE, _SHORT),
    "21t": (_BYTE, _S16),
    "21s": (_BYTE, _S16),
    "21h": (_BYTE, _S16),
    "21c": (_BYTE, _SHORT),
    "23x": (_BYTE, _BYTE, _BYTE),
    "22b": (_BYTE, _BYTE, (-128, 127)),
    "22t": (_NIBBLE, _NIBBLE, _S16),
    "22s": (_NIBBLE, _NIBBLE, _S16),
    "22c": (_NIBBLE, _NIBBLE, _SHORT),
    "32x": (_SHORT, _SHORT),
    "30t": (_S32,),
    "31i": (_BYTE, _S32),
    "31t": (_BYTE, _S32),
    "31c": (_BYTE, (0, 2**32 - 1)),
    "3rc": (_SHORT, _SHORT, _BYTE),
    "51l": (_BYTE, (-(2**63), 2**63 - 1)),
}


def _operand(bounds):
    """Mostly in range; otherwise just outside it or at an edge."""
    lo, hi = bounds
    inside = st.integers(lo, hi)
    return st.one_of(inside, inside, inside,
                     st.integers(lo - 70000, lo - 1),
                     st.integers(hi + 1, hi + 70000),
                     st.sampled_from((lo - 1, lo, hi, hi + 1, -(2**70), 2**70)))


def _operands(fmt):
    if fmt == "35c":
        return st.tuples(_operand(_SHORT),
                         st.lists(_operand(_NIBBLE), max_size=7)).map(
            lambda drawn: (drawn[0], *drawn[1]))
    return st.tuples(*(_operand(bounds) for bounds in _OPERAND_RANGES[fmt]))


def _outcome(encode, *args):
    try:
        return ("units", encode(*args))
    except Exception as exc:  # the type and message must match too
        return ("raised", type(exc), str(exc))


class TestEncodersAgainstTheReferenceChain:
    def test_every_format_has_operand_ranges(self):
        assert set(_OPERAND_RANGES) | {"35c"} == set(formats.FORMAT_UNITS)
        assert set(formats.ENCODERS) == set(formats.FORMAT_UNITS)

    @settings(max_examples=1500, deadline=None)
    @given(st.data())
    def test_encoders_match_the_reference_chain(self, data):
        info = data.draw(st.sampled_from(_OPCODES))
        operands = data.draw(_operands(info.fmt))
        want = _outcome(_reference_encode, info.fmt, info.value, operands)
        assert _outcome(formats.encode, info.fmt, info.value, operands) == want
        assert _outcome(Instruction(info, operands).encode) == want
        assert _outcome(formats.ENCODERS[info.fmt], info.value, operands) \
            == want

    @pytest.mark.parametrize("count", range(8))
    def test_35c_register_counts_match_the_reference_chain(self, count):
        for info in _OPCODES:
            if info.fmt == "35c":
                operands = (0x1234, *range(15, 15 - count, -1))
                want = _outcome(_reference_encode, "35c", info.value, operands)
                assert _outcome(Instruction(info, operands).encode) == want
                assert want[0] == ("units" if count <= 5 else "raised")

    def test_unknown_format_matches_the_reference_chain(self):
        assert _outcome(formats.encode, "99z", _OP, ()) == \
            _outcome(_reference_encode, "99z", _OP, ())


def _reference_facts(info):
    """The string rules the opcode facts were computed by on every read
    before :class:`OpcodeInfo` carried them as fields."""
    name = info.name
    is_return = name.startswith("return")
    is_throw = name == "throw"
    return {
        "is_branch": name.startswith(("if-", "goto")),
        "is_conditional_branch": name.startswith("if-"),
        "is_switch": name in ("packed-switch", "sparse-switch"),
        "is_invoke": name.startswith("invoke-"),
        "is_return": is_return,
        "is_throw": is_throw,
        "can_continue": not (is_return or is_throw or name.startswith("goto")),
        "unit_count": formats.FORMAT_UNITS[info.fmt],
    }


class TestOpcodeFacts:
    def test_each_fact_matches_its_string_rule(self):
        for info in _OPCODES:
            want = _reference_facts(info)
            assert {key: getattr(info, key) for key in want} == want, info.name

    def test_equality_hash_and_repr_ignore_the_facts(self):
        for info in _OPCODES:
            identity = (info.value, info.name, info.fmt, info.index_kind)
            twin = OpcodeInfo(*identity)
            object.__setattr__(twin, "is_branch", not info.is_branch)
            object.__setattr__(twin, "unit_count", info.unit_count + 1)
            assert twin == info
            assert hash(twin) == hash(info) == hash(identity)
            assert repr(twin) == repr(info) == (
                f"OpcodeInfo(value={info.value!r}, name={info.name!r}, "
                f"fmt={info.fmt!r}, index_kind={info.index_kind!r})")

    def test_facts_survive_a_pickle_round_trip(self):
        for info in _OPCODES:
            copy = pickle.loads(pickle.dumps(info))
            assert copy == info
            assert _reference_facts(copy) == {
                key: getattr(copy, key) for key in _reference_facts(info)}
