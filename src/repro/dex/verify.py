"""Structural DEX verifier.

Checks the invariants a conforming consumer relies on: pool sort order,
index ranges, instruction decodability, branch targets landing on
instruction boundaries, register bounds and try-block sanity.  The
reassembler's output must pass this verifier (paper §IV-C: the
reassembled DEX "can be correctly processed by the state-of-the-art
static analysis tools").
"""

from __future__ import annotations

from repro.dex.constants import NO_INDEX
from repro.dex.instructions import Instruction
from repro.dex.opcodes import OPCODE_TABLE, IndexKind
from repro.dex.payloads import (
    FillArrayDataPayload,
    PackedSwitchPayload,
    SparseSwitchPayload,
    decode_payload,
)
from repro.dex.structures import CodeItem, DexFile
from repro.errors import VerificationError

#: The payload kind each 31t opcode must point at.
_PAYLOAD_KINDS = {
    "packed-switch": PackedSwitchPayload,
    "sparse-switch": SparseSwitchPayload,
    "fill-array-data": FillArrayDataPayload,
}

#: Format -> positions of its register operands.  35c and 3rc carry a
#: register list instead (``None``), read by
#: :attr:`~repro.dex.instructions.Instruction.invoke_registers`.
_REGISTER_OPERANDS: dict[str, tuple[int, ...] | None] = {
    "10x": (),
    "12x": (0, 1),
    "11n": (0,),
    "11x": (0,),
    "10t": (),
    "20t": (),
    "22x": (0, 1),
    "21t": (0,),
    "21s": (0,),
    "21h": (0,),
    "21c": (0,),
    "23x": (0, 1, 2),
    "22b": (0, 1),
    "22t": (0, 1),
    "22s": (0, 1),
    "22c": (0, 1),
    "32x": (0, 1),
    "30t": (),
    "31i": (0,),
    "31t": (0,),
    "31c": (0,),
    "35c": None,
    "3rc": None,
    "51l": (0,),
}


def verify_dex(dex: DexFile) -> list[str]:
    """Verify ``dex``; returns a list of problem strings (empty = OK)."""
    problems: list[str] = []
    _check_pools(dex, problems)
    pool_limits = _pool_limits(dex)
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
                _check_code(dex, f"{ref}", method.code, pool_limits, problems)
    return problems


def assert_valid(dex: DexFile) -> None:
    """Raise :class:`VerificationError` if the file has structural problems."""
    problems = verify_dex(dex)
    if problems:
        preview = "; ".join(problems[:5])
        raise VerificationError(
            f"DEX failed verification with {len(problems)} problem(s): {preview}"
        )


def _pool_limits(dex: DexFile) -> list[int | None]:
    """Per opcode byte, the size of the pool its index operand points
    into (``None`` for opcodes without one): sized once per file."""
    sizes = {
        IndexKind.STRING: len(dex.strings),
        IndexKind.TYPE: len(dex.type_ids),
        IndexKind.FIELD: len(dex.field_ids),
        IndexKind.METHOD: len(dex.method_ids),
    }
    return [None if info is None else sizes.get(info.index_kind)
            for info in OPCODE_TABLE]


def _check_pools(dex: DexFile, problems: list[str]) -> None:
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
    class_defs = dex.class_defs
    first: dict[int, int] = {}  # class_idx -> position of its first def
    for position, class_def in enumerate(class_defs):
        first.setdefault(class_def.class_idx, position)
    for position, class_def in enumerate(class_defs):
        if first[class_def.class_idx] != position:
            problems.append(
                f"duplicate class def {_safe_descriptor(dex, class_def.class_idx)}"
            )
            # A repeated def stands where the first def equal to it does.
            position = class_defs.index(class_def)
        if class_def.superclass_idx != NO_INDEX:
            parent = first.get(class_def.superclass_idx)
            if parent is not None and parent > position:
                problems.append(
                    f"class {_safe_descriptor(dex, class_def.class_idx)} "
                    "defined before its superclass"
                )


def _check_code(dex: DexFile, where: str, code: CodeItem,
                pool_limits: list[int | None], problems: list[str]) -> None:
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
        _check_instruction(where, code, dex_pc, ins, boundaries, pool_limits,
                           problems)
    # Control must not fall off the end of the method.  Trailing nops are
    # alignment padding in front of switch/array payloads and are skipped.
    for _pc, last_ins in reversed(instructions):
        if last_ins.name != "nop":
            if last_ins.opcode.can_continue and not last_ins.opcode.is_branch:
                problems.append(f"{where}: control can fall off the end")
            break
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


def _check_instruction(
    where: str,
    code: CodeItem,
    dex_pc: int,
    ins: Instruction,
    boundaries: set[int],
    pool_limits: list[int | None],
    problems: list[str],
) -> None:
    opcode = ins.opcode
    limit = pool_limits[opcode.value]
    if limit is not None and not 0 <= ins.pool_index < limit:
        problems.append(
            f"{where}@{dex_pc}: {ins.name} {opcode.index_kind.value} index "
            f"{ins.pool_index} out of range"
        )
    if opcode.is_branch:
        target = dex_pc + ins.branch_target
        if target not in boundaries:
            problems.append(
                f"{where}@{dex_pc}: branch target {target} not an instruction"
            )
    elif opcode.fmt == "31t":  # a switch or fill-array-data: its payload
        target = dex_pc + ins.branch_target
        try:
            payload = decode_payload(code.insns, target)
        except Exception as exc:
            problems.append(f"{where}@{dex_pc}: bad payload ({exc})")
            return
        if type(payload) is not _PAYLOAD_KINDS[ins.name]:
            problems.append(
                f"{where}@{dex_pc}: {ins.name} points at a "
                f"{type(payload).__name__}"
            )
        elif opcode.is_switch:
            for rel in payload.targets:
                if dex_pc + rel not in boundaries:
                    problems.append(
                        f"{where}@{dex_pc}: switch target {dex_pc + rel} misaligned"
                    )
    positions = _REGISTER_OPERANDS[opcode.fmt]
    if positions is None:
        regs = ins.invoke_registers
    else:
        operands = ins.operands
        regs = [operands[i] for i in positions]
    size = code.registers_size
    for reg in regs:
        if reg >= size:
            problems.append(
                f"{where}@{dex_pc}: {ins.name} uses v{reg} "
                f"but method has {size} registers"
            )


def _safe_descriptor(dex: DexFile, type_idx: int) -> str:
    try:
        return dex.type_descriptor(type_idx)
    except Exception:
        return f"type@{type_idx}"
