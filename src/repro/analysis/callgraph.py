"""Call-graph construction over DEX files (the Soot-framework analogue).

Used by RQ1: the paper builds complete call graphs of Calendar and
Contacts with Soot and checks that every edge of the original also
appears in the reassembled DEX.  Resolution is class-hierarchy based.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dex.structures import DexFile, MethodRef


@dataclass
class CallGraph:
    """Nodes are method signatures; edges are invoke relations."""

    nodes: set[str] = field(default_factory=set)
    edges: set[tuple[str, str]] = field(default_factory=set)

    def successors(self, signature: str) -> list[str]:
        return sorted(callee for caller, callee in self.edges if caller == signature)


def build_call_graph(dex_files: list[DexFile] | DexFile) -> CallGraph:
    """Build the CHA call graph of one or more DEX files."""
    if isinstance(dex_files, DexFile):
        dex_files = [dex_files]
    graph = CallGraph()
    defined: dict[str, str] = {}  # signature -> class descriptor
    superclass: dict[str, str | None] = {}
    for dex in dex_files:
        from repro.dex.constants import NO_INDEX

        for class_def in dex.class_defs:
            descriptor = dex.class_descriptor(class_def)
            superclass[descriptor] = (
                dex.type_descriptor(class_def.superclass_idx)
                if class_def.superclass_idx != NO_INDEX
                else None
            )
            for method in class_def.all_methods():
                ref = dex.method_ref(method.method_idx)
                defined[ref.signature] = descriptor
                graph.nodes.add(ref.signature)
    for dex in dex_files:
        for class_def in dex.class_defs:
            for method in class_def.all_methods():
                if method.code is None:
                    continue
                caller = dex.method_ref(method.method_idx).signature
                for _pc, ins in method.code.instructions():
                    if not ins.opcode.is_invoke:
                        continue
                    callee_ref = dex.method_ref(ins.pool_index)
                    callee = _resolve(callee_ref, defined, superclass)
                    graph.edges.add((caller, callee))
    return graph


def _resolve(ref: MethodRef, defined: dict, superclass: dict) -> str:
    if ref.signature in defined:
        return ref.signature
    walker = superclass.get(ref.class_desc)
    seen = set()
    while walker is not None and walker not in seen:
        seen.add(walker)
        candidate = MethodRef(
            walker, ref.name, ref.param_descs, ref.return_desc
        ).signature
        if candidate in defined:
            return candidate
        walker = superclass.get(walker)
    return ref.signature  # framework / external target


def edges_preserved(original: CallGraph, revealed: CallGraph) -> float:
    """Fraction of the original graph's *exercised-class* edges present in
    the revealed graph.  Edges whose caller class is absent from the
    revealed DEX (never loaded at runtime) are out of scope."""
    revealed_callers = {caller.split(";->")[0] for caller, _ in revealed.edges}
    relevant = {
        (caller, callee)
        for caller, callee in original.edges
        if caller.split(";->")[0] in revealed_callers
    }
    if not relevant:
        return 1.0
    kept = sum(1 for edge in relevant if edge in revealed.edges)
    return kept / len(relevant)
