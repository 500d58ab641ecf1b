"""Dalvik instruction formats: how operands pack into 16-bit code units.

Each format name follows the Dalvik convention: the first digit is the
number of 16-bit code units, the second the number of registers, and the
trailing letter the kind of extra operand (``x`` none, ``n`` nibble
literal, ``b`` byte literal, ``s`` short literal, ``i``/``l`` 32/64-bit
literal, ``h`` high16 literal, ``t`` branch target, ``c`` constant-pool
index).

The encoder/decoder here work on *operand tuples*; operand meaning is
defined by :mod:`repro.dex.opcodes`.
"""

from __future__ import annotations

from repro.errors import DexEncodeError, DexFormatError

# Format name -> number of 16-bit code units occupied.
FORMAT_UNITS: dict[str, int] = {
    "10x": 1,
    "12x": 1,
    "11n": 1,
    "11x": 1,
    "10t": 1,
    "20t": 2,
    "22x": 2,
    "21t": 2,
    "21s": 2,
    "21h": 2,
    "21c": 2,
    "23x": 2,
    "22b": 2,
    "22t": 2,
    "22s": 2,
    "22c": 2,
    "32x": 3,
    "30t": 3,
    "31i": 3,
    "31t": 3,
    "31c": 3,
    "35c": 3,
    "3rc": 3,
    "51l": 5,
}


def _check_range(name: str, value: int, lo: int, hi: int) -> None:
    if not lo <= value <= hi:
        raise DexEncodeError(f"{name} operand {value} out of range [{lo}, {hi}]")


def _u16(value: int) -> int:
    return value & 0xFFFF


def _s_of(value: int, bits: int) -> int:
    """Interpret ``value`` (unsigned, ``bits`` wide) as signed."""
    sign = 1 << (bits - 1)
    return (value & (sign - 1)) - (value & sign)


# Per-format operand encoders.  Each takes the opcode byte and the
# operand tuple (the layout :func:`decode` returns) and returns the code
# units; range checks run in operand order and raise
# :class:`DexEncodeError` naming the format.  Like the decoders below
# they are chosen once per format (:data:`ENCODERS`), so encoding an
# instruction is one lookup and one call.


def _encode_10x(op: int, operands: tuple[int, ...]) -> list[int]:
    return [op]


def _encode_12x(op: int, operands: tuple[int, ...]) -> list[int]:
    a, b = operands
    _check_range("12x", a, 0, 15)
    _check_range("12x", b, 0, 15)
    return [op | (a << 8) | (b << 12)]


def _encode_11n(op: int, operands: tuple[int, ...]) -> list[int]:
    a, lit = operands
    _check_range("11n", a, 0, 15)
    _check_range("11n", lit, -8, 7)
    return [op | (a << 8) | ((lit & 0xF) << 12)]


def _encode_11x(op: int, operands: tuple[int, ...]) -> list[int]:
    (a,) = operands
    _check_range("11x", a, 0, 255)
    return [op | (a << 8)]


def _encode_10t(op: int, operands: tuple[int, ...]) -> list[int]:
    (target,) = operands
    _check_range("10t", target, -128, 127)
    return [op | ((target & 0xFF) << 8)]


def _encode_20t(op: int, operands: tuple[int, ...]) -> list[int]:
    (target,) = operands
    _check_range("20t", target, -32768, 32767)
    return [op, _u16(target)]


def _encode_22x(op: int, operands: tuple[int, ...]) -> list[int]:
    a, b = operands
    _check_range("22x", a, 0, 255)
    _check_range("22x", b, 0, 65535)
    return [op | (a << 8), b]


def _reg8_lit16(fmt: str):
    """The 21t / 21s / 21h encoder: a register byte, a signed short."""

    def encoder(op: int, operands: tuple[int, ...]) -> list[int]:
        a, lit = operands
        _check_range(fmt, a, 0, 255)
        _check_range(fmt, lit, -32768, 32767)
        return [op | (a << 8), _u16(lit)]

    return encoder


def _encode_21c(op: int, operands: tuple[int, ...]) -> list[int]:
    a, index = operands
    _check_range("21c", a, 0, 255)
    _check_range("21c", index, 0, 65535)
    return [op | (a << 8), index]


def _encode_23x(op: int, operands: tuple[int, ...]) -> list[int]:
    a, b, c = operands
    _check_range("23x", a, 0, 255)
    _check_range("23x", b, 0, 255)
    _check_range("23x", c, 0, 255)
    return [op | (a << 8), b | (c << 8)]


def _encode_22b(op: int, operands: tuple[int, ...]) -> list[int]:
    a, b, lit = operands
    _check_range("22b", a, 0, 255)
    _check_range("22b", b, 0, 255)
    _check_range("22b", lit, -128, 127)
    return [op | (a << 8), b | ((lit & 0xFF) << 8)]


def _nibbles_lit16(fmt: str):
    """The 22t / 22s encoder: two register nibbles, a signed short."""

    def encoder(op: int, operands: tuple[int, ...]) -> list[int]:
        a, b, lit = operands
        _check_range(fmt, a, 0, 15)
        _check_range(fmt, b, 0, 15)
        _check_range(fmt, lit, -32768, 32767)
        return [op | (a << 8) | (b << 12), _u16(lit)]

    return encoder


def _encode_22c(op: int, operands: tuple[int, ...]) -> list[int]:
    a, b, index = operands
    _check_range("22c", a, 0, 15)
    _check_range("22c", b, 0, 15)
    _check_range("22c", index, 0, 65535)
    return [op | (a << 8) | (b << 12), index]


def _encode_32x(op: int, operands: tuple[int, ...]) -> list[int]:
    a, b = operands
    _check_range("32x", a, 0, 65535)
    _check_range("32x", b, 0, 65535)
    return [op, a, b]


def _encode_30t(op: int, operands: tuple[int, ...]) -> list[int]:
    (target,) = operands
    _check_range("30t", target, -(1 << 31), (1 << 31) - 1)
    value = target & 0xFFFFFFFF
    return [op, value & 0xFFFF, value >> 16]


def _reg8_lit32(fmt: str, lo: int, hi: int):
    """The 31i / 31t / 31c encoder: a register byte, a 32-bit word in
    ``[lo, hi]``."""

    def encoder(op: int, operands: tuple[int, ...]) -> list[int]:
        a, lit = operands
        _check_range(fmt, a, 0, 255)
        _check_range(fmt, lit, lo, hi)
        value = lit & 0xFFFFFFFF
        return [op | (a << 8), value & 0xFFFF, value >> 16]

    return encoder


def _encode_35c(op: int, operands: tuple[int, ...]) -> list[int]:
    index, regs = operands[0], operands[1:]
    count = len(regs)
    if count > 5:
        raise DexEncodeError(f"35c supports at most 5 registers, got {count}")
    _check_range("35c", index, 0, 65535)
    for reg in regs:
        _check_range("35c", reg, 0, 15)
    padded = (*regs, 0, 0, 0, 0, 0)
    unit0 = op | (padded[4] << 8) | (count << 12)
    unit2 = padded[0] | (padded[1] << 4) | (padded[2] << 8) | (padded[3] << 12)
    return [unit0, index, unit2]


def _encode_3rc(op: int, operands: tuple[int, ...]) -> list[int]:
    index, first_reg, count = operands
    _check_range("3rc", index, 0, 65535)
    _check_range("3rc", first_reg, 0, 65535)
    _check_range("3rc", count, 0, 255)
    return [op | (count << 8), index, first_reg]


def _encode_51l(op: int, operands: tuple[int, ...]) -> list[int]:
    a, lit = operands
    _check_range("51l", a, 0, 255)
    _check_range("51l", lit, -(1 << 63), (1 << 63) - 1)
    value = lit & 0xFFFFFFFFFFFFFFFF
    return [
        op | (a << 8),
        value & 0xFFFF,
        (value >> 16) & 0xFFFF,
        (value >> 32) & 0xFFFF,
        (value >> 48) & 0xFFFF,
    ]


ENCODERS = {
    "10x": _encode_10x,
    "12x": _encode_12x,
    "11n": _encode_11n,
    "11x": _encode_11x,
    "10t": _encode_10t,
    "20t": _encode_20t,
    "22x": _encode_22x,
    "21t": _reg8_lit16("21t"),
    "21s": _reg8_lit16("21s"),
    "21h": _reg8_lit16("21h"),
    "21c": _encode_21c,
    "23x": _encode_23x,
    "22b": _encode_22b,
    "22t": _nibbles_lit16("22t"),
    "22s": _nibbles_lit16("22s"),
    "22c": _encode_22c,
    "32x": _encode_32x,
    "30t": _encode_30t,
    "31i": _reg8_lit32("31i", -(1 << 31), (1 << 31) - 1),
    "31t": _reg8_lit32("31t", -(1 << 31), (1 << 31) - 1),
    "31c": _reg8_lit32("31c", 0, 0xFFFFFFFF),
    "35c": _encode_35c,
    "3rc": _encode_3rc,
    "51l": _encode_51l,
}


def encode(fmt: str, opcode: int, operands: tuple[int, ...]) -> list[int]:
    """Encode one instruction into its code units.

    ``operands`` layout per format (registers first, then literal/target/
    index), matching the order produced by :func:`decode`.
    """
    op = opcode & 0xFF
    encoder = ENCODERS.get(fmt)
    if encoder is None:
        raise DexEncodeError(f"unknown instruction format {fmt!r}")
    return encoder(op, operands)


# Per-format operand decoders.  Each takes ``(units, pos)`` and returns
# the operand tuple in the same layout :func:`encode` accepts; the opcode
# byte itself is ``units[pos] & 0xFF`` and is not returned.  They are
# selected *once* per opcode at dispatch-table build time (see
# :mod:`repro.dex.instructions`) instead of walking a chain of string
# comparisons on every interpreter step.  Decoders assume the caller has
# checked that ``FORMAT_UNITS`` code units are available at ``pos``.


def _decode_10x(units: list[int], pos: int) -> tuple[int, ...]:
    return ()


def _decode_12x(units: list[int], pos: int) -> tuple[int, ...]:
    u0 = units[pos]
    return ((u0 >> 8) & 0xF, (u0 >> 12) & 0xF)


def _decode_11n(units: list[int], pos: int) -> tuple[int, ...]:
    u0 = units[pos]
    return ((u0 >> 8) & 0xF, _s_of((u0 >> 12) & 0xF, 4))


def _decode_11x(units: list[int], pos: int) -> tuple[int, ...]:
    return ((units[pos] >> 8) & 0xFF,)


def _decode_10t(units: list[int], pos: int) -> tuple[int, ...]:
    return (_s_of((units[pos] >> 8) & 0xFF, 8),)


def _decode_20t(units: list[int], pos: int) -> tuple[int, ...]:
    return (_s_of(units[pos + 1], 16),)


def _decode_22x(units: list[int], pos: int) -> tuple[int, ...]:
    return ((units[pos] >> 8) & 0xFF, units[pos + 1])


def _decode_21t_21s_21h(units: list[int], pos: int) -> tuple[int, ...]:
    return ((units[pos] >> 8) & 0xFF, _s_of(units[pos + 1], 16))


def _decode_21c(units: list[int], pos: int) -> tuple[int, ...]:
    return ((units[pos] >> 8) & 0xFF, units[pos + 1])


def _decode_23x(units: list[int], pos: int) -> tuple[int, ...]:
    u1 = units[pos + 1]
    return ((units[pos] >> 8) & 0xFF, u1 & 0xFF, (u1 >> 8) & 0xFF)


def _decode_22b(units: list[int], pos: int) -> tuple[int, ...]:
    u1 = units[pos + 1]
    return ((units[pos] >> 8) & 0xFF, u1 & 0xFF, _s_of((u1 >> 8) & 0xFF, 8))


def _decode_22t_22s(units: list[int], pos: int) -> tuple[int, ...]:
    u0 = units[pos]
    return ((u0 >> 8) & 0xF, (u0 >> 12) & 0xF, _s_of(units[pos + 1], 16))


def _decode_22c(units: list[int], pos: int) -> tuple[int, ...]:
    u0 = units[pos]
    return ((u0 >> 8) & 0xF, (u0 >> 12) & 0xF, units[pos + 1])


def _decode_32x(units: list[int], pos: int) -> tuple[int, ...]:
    return (units[pos + 1], units[pos + 2])


def _decode_30t(units: list[int], pos: int) -> tuple[int, ...]:
    value = units[pos + 1] | (units[pos + 2] << 16)
    return (_s_of(value, 32),)


def _decode_31i_31t(units: list[int], pos: int) -> tuple[int, ...]:
    value = units[pos + 1] | (units[pos + 2] << 16)
    return ((units[pos] >> 8) & 0xFF, _s_of(value, 32))


def _decode_31c(units: list[int], pos: int) -> tuple[int, ...]:
    value = units[pos + 1] | (units[pos + 2] << 16)
    return ((units[pos] >> 8) & 0xFF, value)


def _decode_35c(units: list[int], pos: int) -> tuple[int, ...]:
    u0 = units[pos]
    count = (u0 >> 12) & 0xF
    g = (u0 >> 8) & 0xF
    index = units[pos + 1]
    u2 = units[pos + 2]
    all_regs = (u2 & 0xF, (u2 >> 4) & 0xF, (u2 >> 8) & 0xF, (u2 >> 12) & 0xF, g)
    return (index, *all_regs[:count])


def _decode_3rc(units: list[int], pos: int) -> tuple[int, ...]:
    count = (units[pos] >> 8) & 0xFF
    return (units[pos + 1], units[pos + 2], count)


def _decode_51l(units: list[int], pos: int) -> tuple[int, ...]:
    value = (
        units[pos + 1]
        | (units[pos + 2] << 16)
        | (units[pos + 3] << 32)
        | (units[pos + 4] << 48)
    )
    return ((units[pos] >> 8) & 0xFF, _s_of(value, 64))


DECODERS = {
    "10x": _decode_10x,
    "12x": _decode_12x,
    "11n": _decode_11n,
    "11x": _decode_11x,
    "10t": _decode_10t,
    "20t": _decode_20t,
    "22x": _decode_22x,
    "21t": _decode_21t_21s_21h,
    "21s": _decode_21t_21s_21h,
    "21h": _decode_21t_21s_21h,
    "21c": _decode_21c,
    "23x": _decode_23x,
    "22b": _decode_22b,
    "22t": _decode_22t_22s,
    "22s": _decode_22t_22s,
    "22c": _decode_22c,
    "32x": _decode_32x,
    "30t": _decode_30t,
    "31i": _decode_31i_31t,
    "31t": _decode_31i_31t,
    "31c": _decode_31c,
    "35c": _decode_35c,
    "3rc": _decode_3rc,
    "51l": _decode_51l,
}


def decoder_for(fmt: str):
    """The unbound operand decoder for ``fmt`` (no bounds checking)."""
    try:
        return DECODERS[fmt]
    except KeyError:
        raise DexFormatError(f"unknown instruction format {fmt!r}") from None


def decode(fmt: str, units: list[int], pos: int) -> tuple[int, ...]:
    """Decode the operands of an instruction at ``pos`` in ``units``.

    Returns the operand tuple in the same layout :func:`encode` accepts.
    The opcode byte itself is ``units[pos] & 0xFF`` and is not returned.
    """
    need = FORMAT_UNITS[fmt]
    if pos + need > len(units):
        raise DexFormatError(
            f"truncated {fmt} instruction at unit {pos} (need {need} units)"
        )
    return decoder_for(fmt)(units, pos)
