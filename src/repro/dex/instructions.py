"""Instruction model: decoded view of one Dalvik instruction.

An :class:`Instruction` pairs an :class:`~repro.dex.opcodes.OpcodeInfo`
with its operand tuple and knows how to re-encode itself.  The interpreter
decodes instructions *lazily from the live code-unit array* on every
execution — this is what makes self-modifying code observable, exactly as
in ART where the interpreter re-fetches code units each time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dex import formats
from repro.dex.opcodes import (
    OPCODE_TABLE,
    PAYLOAD_IDENTS,
    IndexKind,
    OpcodeInfo,
    opcode_at,
    opcode_for,
)
from repro.dex.payloads import payload_unit_count
from repro.errors import DexFormatError

# Decode table indexed by opcode byte: ``(info, operand decoder, unit
# count)`` resolved once at import time from the value-indexed
# ``OPCODE_TABLE``.  ``decode_at`` and the interpreter's predecoder
# index this instead of re-running string format comparisons per fetch.
# ``None`` marks unassigned opcode bytes.
DECODE_TABLE: list[tuple[OpcodeInfo, object, int] | None] = [
    None
    if info is None
    else (info, formats.decoder_for(info.fmt), info.unit_count)
    for info in OPCODE_TABLE
]

# Format -> position of the relative offset among the operands: gotos
# (10t/20t/30t), conditional branches (21t/22t), and switches and
# fill-array-data (31t, whose offset points at the payload).
_TARGET_OPERAND = {"10t": 0, "20t": 0, "30t": 0, "21t": 1, "22t": 2, "31t": 1}


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction.

    ``operands`` layout follows :mod:`repro.dex.formats`: register operands
    first (except 35c/3rc where the pool index leads), then the literal,
    branch target or pool index.
    """

    opcode: OpcodeInfo
    operands: tuple[int, ...]

    # -- construction -----------------------------------------------------

    @classmethod
    def make(cls, name: str, *operands: int) -> "Instruction":
        """Build an instruction from a mnemonic and raw operands."""
        return cls(opcode_for(name), tuple(operands))

    @classmethod
    def decode_at(cls, units: list[int], pos: int) -> "Instruction":
        """Decode the instruction starting at code unit ``pos``."""
        unit = units[pos]
        value = unit & 0xFF
        entry = DECODE_TABLE[value]
        if entry is None or (value == 0 and unit in PAYLOAD_IDENTS):
            opcode_at(units, pos)  # raises the canonical DexFormatError
        info, decoder, need = entry
        if pos + need > len(units):
            raise DexFormatError(
                f"truncated {info.fmt} instruction at unit {pos}"
                f" (need {need} units)"
            )
        return cls(info, decoder(units, pos))

    # -- encoding ---------------------------------------------------------

    def encode(self) -> list[int]:
        """Encode back to code units."""
        opcode = self.opcode
        return formats.ENCODERS[opcode.fmt](opcode.value, self.operands)

    @property
    def unit_count(self) -> int:
        return self.opcode.unit_count

    # -- semantic accessors -----------------------------------------------

    @property
    def name(self) -> str:
        return self.opcode.name

    @property
    def branch_target(self) -> int:
        """Relative branch offset in code units (branches and switches)."""
        position = _TARGET_OPERAND.get(self.opcode.fmt)
        if position is None:
            raise DexFormatError(f"{self.name} has no branch target")
        return self.operands[position]

    def with_branch_target(self, offset: int) -> "Instruction":
        """Copy of this instruction with its relative offset replaced."""
        position = _TARGET_OPERAND.get(self.opcode.fmt)
        if position is None:
            raise DexFormatError(f"{self.name} has no branch target")
        operands = self.operands
        return Instruction(
            self.opcode, (*operands[:position], offset, *operands[position + 1:])
        )

    @property
    def pool_index(self) -> int:
        """Constant-pool index for c-format instructions."""
        if self.opcode.index_kind is IndexKind.NONE:
            raise DexFormatError(f"{self.name} carries no pool index")
        if self.opcode.fmt in ("35c", "3rc"):
            return self.operands[0]
        return self.operands[-1]

    def with_pool_index(self, index: int) -> "Instruction":
        """Copy of this instruction with its pool index replaced."""
        if self.opcode.index_kind is IndexKind.NONE:
            raise DexFormatError(f"{self.name} carries no pool index")
        if self.opcode.fmt in ("35c", "3rc"):
            return Instruction(self.opcode, (index, *self.operands[1:]))
        return Instruction(self.opcode, (*self.operands[:-1], index))

    @property
    def invoke_registers(self) -> list[int]:
        """Argument registers of an invoke / filled-new-array instruction."""
        if self.opcode.fmt == "35c":
            return list(self.operands[1:])
        if self.opcode.fmt == "3rc":
            first, count = self.operands[1], self.operands[2]
            return list(range(first, first + count))
        raise DexFormatError(f"{self.name} is not a register-list instruction")

    @property
    def literal(self) -> int:
        """Literal operand of const / lit-arith instructions."""
        fmt = self.opcode.fmt
        if fmt in ("11n", "21s", "21h", "31i", "51l", "22s"):
            return self.operands[-1]
        if fmt == "22b":
            return self.operands[2]
        raise DexFormatError(f"{self.name} has no literal")

    def __str__(self) -> str:
        args = ", ".join(str(op) for op in self.operands)
        return f"{self.name} {args}".rstrip()


def iter_instructions(units: list[int]) -> list[tuple[int, Instruction]]:
    """Decode all real instructions in a code-unit array.

    Returns ``(dex_pc, instruction)`` pairs.  Payload regions referenced by
    switch / fill-array-data instructions are skipped (they are data).
    One walk decodes each instruction once and finds the payloads on the
    way: a 31t instruction records its payload's extent for the walk to
    skip when it gets there, and a payload ident met at an instruction
    boundary (an unreferenced payload) is skipped by its own extent.
    """
    out: list[tuple[int, Instruction]] = []
    payloads: dict[int, int] = {}  # payload start -> unit count
    end = len(units)
    pos = 0
    while pos < end:
        skip = payloads.get(pos)
        if skip is None:
            unit = units[pos]
            if pos > 0 and (unit & 0xFF) == 0 and unit in PAYLOAD_IDENTS:
                skip = payload_unit_count(units, pos)
        if skip is not None:
            pos += skip
            continue
        ins = Instruction.decode_at(units, pos)
        out.append((pos, ins))
        info = ins.opcode
        if info.fmt == "31t":
            target = pos + ins.branch_target
            if 0 <= target < end:
                payloads[target] = payload_unit_count(units, target)
        pos += info.unit_count
    return out
