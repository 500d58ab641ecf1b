"""The Dalvik opcode table.

Each opcode is described by an :class:`OpcodeInfo`: its byte value, smali
mnemonic, instruction format (see :mod:`repro.dex.formats`) and the kind
of constant-pool index it references (if any).  The table covers the
classic Dalvik set used by application bytecode; exotic late additions
(``invoke-polymorphic`` and friends) are deliberately absent — see
DESIGN.md "Known deviations".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.dex.formats import FORMAT_UNITS
from repro.errors import DexFormatError


class IndexKind(enum.Enum):
    """What a ``c``-format index operand points at."""

    NONE = "none"
    STRING = "string"
    TYPE = "type"
    FIELD = "field"
    METHOD = "method"


@dataclass(frozen=True)
class OpcodeInfo:
    """Static description of one opcode.

    The control-flow facts and the unit count are fixed per opcode, so
    they are worked out once, when the opcode's entry is made, and read
    as plain fields by every per-instruction loop (emission, encoding,
    verification, the interpreter).  They take no part in equality,
    hashing or ``repr``: an opcode is still its value, name, format and
    index kind.
    """

    value: int
    name: str
    fmt: str
    index_kind: IndexKind = IndexKind.NONE
    is_branch: bool = field(init=False, repr=False, compare=False)
    is_conditional_branch: bool = field(init=False, repr=False, compare=False)
    is_switch: bool = field(init=False, repr=False, compare=False)
    is_invoke: bool = field(init=False, repr=False, compare=False)
    is_return: bool = field(init=False, repr=False, compare=False)
    is_throw: bool = field(init=False, repr=False, compare=False)
    #: True if control may fall through to the next instruction.
    can_continue: bool = field(init=False, repr=False, compare=False)
    #: Code units one instruction of this opcode occupies.
    unit_count: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        name = self.name
        is_goto = name.startswith("goto")
        is_return = name.startswith("return")
        is_throw = name == "throw"
        facts = {
            "is_branch": name.startswith(("if-", "goto")),
            "is_conditional_branch": name.startswith("if-"),
            "is_switch": name in ("packed-switch", "sparse-switch"),
            "is_invoke": name.startswith("invoke-"),
            "is_return": is_return,
            "is_throw": is_throw,
            "can_continue": not (is_return or is_throw or is_goto),
            "unit_count": FORMAT_UNITS[self.fmt],
        }
        for key, value in facts.items():
            object.__setattr__(self, key, value)


def _build_table() -> dict[int, OpcodeInfo]:
    entries: list[tuple[int, str, str, IndexKind]] = []
    none = IndexKind.NONE

    def add(value: int, name: str, fmt: str, kind: IndexKind = none) -> None:
        entries.append((value, name, fmt, kind))

    add(0x00, "nop", "10x")
    add(0x01, "move", "12x")
    add(0x02, "move/from16", "22x")
    add(0x03, "move/16", "32x")
    add(0x04, "move-wide", "12x")
    add(0x05, "move-wide/from16", "22x")
    add(0x06, "move-wide/16", "32x")
    add(0x07, "move-object", "12x")
    add(0x08, "move-object/from16", "22x")
    add(0x09, "move-object/16", "32x")
    add(0x0A, "move-result", "11x")
    add(0x0B, "move-result-wide", "11x")
    add(0x0C, "move-result-object", "11x")
    add(0x0D, "move-exception", "11x")
    add(0x0E, "return-void", "10x")
    add(0x0F, "return", "11x")
    add(0x10, "return-wide", "11x")
    add(0x11, "return-object", "11x")
    add(0x12, "const/4", "11n")
    add(0x13, "const/16", "21s")
    add(0x14, "const", "31i")
    add(0x15, "const/high16", "21h")
    add(0x16, "const-wide/16", "21s")
    add(0x17, "const-wide/32", "31i")
    add(0x18, "const-wide", "51l")
    add(0x19, "const-wide/high16", "21h")
    add(0x1A, "const-string", "21c", IndexKind.STRING)
    add(0x1B, "const-string/jumbo", "31c", IndexKind.STRING)
    add(0x1C, "const-class", "21c", IndexKind.TYPE)
    add(0x1D, "monitor-enter", "11x")
    add(0x1E, "monitor-exit", "11x")
    add(0x1F, "check-cast", "21c", IndexKind.TYPE)
    add(0x20, "instance-of", "22c", IndexKind.TYPE)
    add(0x21, "array-length", "12x")
    add(0x22, "new-instance", "21c", IndexKind.TYPE)
    add(0x23, "new-array", "22c", IndexKind.TYPE)
    add(0x24, "filled-new-array", "35c", IndexKind.TYPE)
    add(0x25, "filled-new-array/range", "3rc", IndexKind.TYPE)
    add(0x26, "fill-array-data", "31t")
    add(0x27, "throw", "11x")
    add(0x28, "goto", "10t")
    add(0x29, "goto/16", "20t")
    add(0x2A, "goto/32", "30t")
    add(0x2B, "packed-switch", "31t")
    add(0x2C, "sparse-switch", "31t")
    add(0x2D, "cmpl-float", "23x")
    add(0x2E, "cmpg-float", "23x")
    add(0x2F, "cmpl-double", "23x")
    add(0x30, "cmpg-double", "23x")
    add(0x31, "cmp-long", "23x")
    for i, cond in enumerate(("eq", "ne", "lt", "ge", "gt", "le")):
        add(0x32 + i, f"if-{cond}", "22t")
    for i, cond in enumerate(("eqz", "nez", "ltz", "gez", "gtz", "lez")):
        add(0x38 + i, f"if-{cond}", "21t")
    array_suffixes = ("", "-wide", "-object", "-boolean", "-byte", "-char", "-short")
    for i, suffix in enumerate(array_suffixes):
        add(0x44 + i, f"aget{suffix}", "23x")
    for i, suffix in enumerate(array_suffixes):
        add(0x4B + i, f"aput{suffix}", "23x")
    for i, suffix in enumerate(array_suffixes):
        add(0x52 + i, f"iget{suffix}", "22c", IndexKind.FIELD)
    for i, suffix in enumerate(array_suffixes):
        add(0x59 + i, f"iput{suffix}", "22c", IndexKind.FIELD)
    for i, suffix in enumerate(array_suffixes):
        add(0x60 + i, f"sget{suffix}", "21c", IndexKind.FIELD)
    for i, suffix in enumerate(array_suffixes):
        add(0x67 + i, f"sput{suffix}", "21c", IndexKind.FIELD)
    invoke_kinds = ("virtual", "super", "direct", "static", "interface")
    for i, kind in enumerate(invoke_kinds):
        add(0x6E + i, f"invoke-{kind}", "35c", IndexKind.METHOD)
    for i, kind in enumerate(invoke_kinds):
        add(0x74 + i, f"invoke-{kind}/range", "3rc", IndexKind.METHOD)
    unary = (
        "neg-int", "not-int", "neg-long", "not-long", "neg-float", "neg-double",
        "int-to-long", "int-to-float", "int-to-double", "long-to-int",
        "long-to-float", "long-to-double", "float-to-int", "float-to-long",
        "float-to-double", "double-to-int", "double-to-long", "double-to-float",
        "int-to-byte", "int-to-char", "int-to-short",
    )
    for i, name in enumerate(unary):
        add(0x7B + i, name, "12x")
    int_ops = ("add", "sub", "mul", "div", "rem", "and", "or", "xor", "shl", "shr", "ushr")
    long_ops = int_ops
    float_ops = ("add", "sub", "mul", "div", "rem")
    for i, name in enumerate(int_ops):
        add(0x90 + i, f"{name}-int", "23x")
    for i, name in enumerate(long_ops):
        add(0x9B + i, f"{name}-long", "23x")
    for i, name in enumerate(float_ops):
        add(0xA6 + i, f"{name}-float", "23x")
    for i, name in enumerate(float_ops):
        add(0xAB + i, f"{name}-double", "23x")
    for i, name in enumerate(int_ops):
        add(0xB0 + i, f"{name}-int/2addr", "12x")
    for i, name in enumerate(long_ops):
        add(0xBB + i, f"{name}-long/2addr", "12x")
    for i, name in enumerate(float_ops):
        add(0xC6 + i, f"{name}-float/2addr", "12x")
    for i, name in enumerate(float_ops):
        add(0xCB + i, f"{name}-double/2addr", "12x")
    lit16_ops = ("add", "rsub", "mul", "div", "rem", "and", "or", "xor")
    for i, name in enumerate(lit16_ops):
        suffix = "" if name == "rsub" else "/lit16"
        add(0xD0 + i, f"{name}-int{suffix}", "22s")
    lit8_ops = ("add", "rsub", "mul", "div", "rem", "and", "or", "xor", "shl", "shr", "ushr")
    for i, name in enumerate(lit8_ops):
        add(0xD8 + i, f"{name}-int/lit8", "22b")
    return {
        value: OpcodeInfo(value, name, fmt, kind) for value, name, fmt, kind in entries
    }


OPCODES: dict[int, OpcodeInfo] = _build_table()
OPCODES_BY_NAME: dict[str, OpcodeInfo] = {info.name: info for info in OPCODES.values()}

# 256-slot table indexed by opcode byte value (``None`` for unassigned
# values).  The interpreter fast path and the instruction decoder index
# this directly instead of probing the dict above on every fetch.
OPCODE_TABLE: list[OpcodeInfo | None] = [None] * 256
for _info in OPCODES.values():
    OPCODE_TABLE[_info.value] = _info
del _info

# Pseudo-opcodes marking inline data payloads.  They live in the code-unit
# stream but are data, not executable instructions; the low byte is `nop`.
PACKED_SWITCH_PAYLOAD = 0x0100
SPARSE_SWITCH_PAYLOAD = 0x0200
FILL_ARRAY_DATA_PAYLOAD = 0x0300
PAYLOAD_IDENTS = frozenset(
    {PACKED_SWITCH_PAYLOAD, SPARSE_SWITCH_PAYLOAD, FILL_ARRAY_DATA_PAYLOAD}
)


def opcode_for(name: str) -> OpcodeInfo:
    """Look up an opcode by its smali mnemonic."""
    try:
        return OPCODES_BY_NAME[name]
    except KeyError:
        raise DexFormatError(f"unknown opcode mnemonic {name!r}") from None


def opcode_at(units: list[int], pos: int) -> OpcodeInfo:
    """Look up the opcode of the code unit at ``pos``."""
    unit = units[pos]
    value = unit & 0xFF
    if value == 0 and unit in PAYLOAD_IDENTS:
        raise DexFormatError(f"code unit at {pos} is a data payload, not an opcode")
    info = OPCODE_TABLE[value]
    if info is None:
        raise DexFormatError(f"unknown opcode {value:#04x} at unit {pos}")
    return info
