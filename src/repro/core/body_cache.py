"""Cross-app method-body dedup for the reassembler.

The reassembler's body emission (:meth:`Reassembler._emit_collected_body`)
is a pure function of the :class:`~repro.core.method_store.MethodRecord`
— *except* that every constant-pool reference is interned into the
output DEX at emission time, so the raw instruction stream it produces
is app-specific.  This module makes the emission portable:

* :func:`method_document` and :func:`document_digest` — the exact
  digest, a canonical hash of everything the emission depends on, with
  pool indices masked out of the raw units (the resolved *symbols* are
  the identity, not the indices).  Two records with equal digests
  produce byte-identical method bodies in any DEX.
  :func:`normalized_method_tokens` walks the same document, so the
  corpus index's structural and fuzzy digests are functions of the
  exact digest.
* :class:`BodyWriter` — the single funnel all body-emission builder
  calls go through.  It forwards to the live
  :class:`~repro.dex.builder.MethodBuilder` and (when the body is
  cacheable) records each call as a JSON-safe *op* carrying symbols,
  never pool indices.
* :func:`replay_body` — re-applies a recorded op list against a fresh
  builder in another app's DEX, re-interning every symbol in the
  original call order.  Replay therefore performs the same builder and
  intern calls emission would, which is what makes the byte-identity
  guarantee hold by construction.

The ``get_body``/``put_body`` store is
:class:`repro.index.corpus.CorpusIndex`.  Bodies containing
reflective-invoke rewrites are never cached — bridge method numbering
is app-global.
"""

from __future__ import annotations

import hashlib
import json
from operator import itemgetter

from repro.core.method_store import MethodRecord
from repro.dex.instructions import Instruction
from repro.dex.normalize import Normalizer
from repro.dex.opcodes import IndexKind, opcode_for
from repro.dex.sigs import parse_field_signature, parse_method_signature

BODY_OPS_VERSION = 1

_KIND_TAGS = {
    IndexKind.STRING: "string",
    IndexKind.TYPE: "type",
    IndexKind.FIELD: "field",
    IndexKind.METHOD: "method",
}


# -- canonical digests -------------------------------------------------------


def _instruction_doc(collected) -> list:
    ins = collected.instruction
    if ins.opcode.index_kind is not IndexKind.NONE:
        operands = list(ins.with_pool_index(0).operands)
    else:
        operands = list(ins.operands)
    return [
        collected.dex_pc,
        ins.name,
        operands,
        list(collected.payload_units) if collected.payload_units else None,
        collected.symbol,
    ]


def _tree_doc(node) -> dict:
    return {
        "sm": [node.sm_start, node.sm_end],
        "il": [_instruction_doc(c) for c in node.il],
        "ch": [_tree_doc(child) for child in node.children],
    }


def method_document(record: MethodRecord) -> dict:
    """Everything body emission reads from the record, as one document.

    Pool indices inside the raw units are masked (``with_pool_index(0)``)
    and the resolved symbols kept, so the document is the same across
    apps whose pools assign different indices to the same references —
    while register numbers, literals, branch offsets, tree structure,
    try blocks and frame sizes all stay identity.
    """
    return {
        "v": BODY_OPS_VERSION,
        "sig": record.signature,
        "access": record.access_flags,
        "frame": [record.registers_size, record.ins_size, record.outs_size],
        "params": list(record.param_descs),
        "ret": record.return_desc,
        "tries": [t.to_dict() for t in record.tries],
        "trees": [_tree_doc(tree.root) for tree in record.trees],
    }


def document_digest(doc: dict) -> str:
    """SHA-256 of a :func:`method_document`'s canonical JSON: the exact
    digest.  Equal digests mean byte-identical bodies in any DEX."""
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def normalized_method_tokens(doc: dict) -> list:
    """Register- and pool-index-insensitive token stream of a
    :func:`method_document`.

    Walks the document's trees in storage order (node preorder, IL in
    ``dex_pc`` order) feeding one :class:`~repro.dex.normalize.Normalizer`
    whose first-use ordinals replace register numbers and symbols.  Each
    instruction is rebuilt from its name and masked operands: the
    normalizer reads the symbol, never the pool index, so the tokens are
    the executed instruction's.  Reading nothing but the document the
    exact digest hashes, equal exact digests give equal tokens.
    """
    normalizer = Normalizer()
    tokens: list = [["sig", doc["params"], doc["ret"], doc["frame"][1]]]

    def walk(node: dict) -> None:
        tokens.append(["node", node["sm"][0]])
        for dex_pc, name, operands, payload, symbol in sorted(
                node["il"], key=itemgetter(0)):
            ins = Instruction(opcode_for(name), tuple(operands))
            tokens.append([dex_pc] + normalizer.token(ins, symbol, payload))
        for child in node["ch"]:
            walk(child)

    for root in doc["trees"]:
        walk(root)
    return tokens


# -- recording writer --------------------------------------------------------


class BodyWriter:
    """Funnel for all body-emission builder calls, optionally recording.

    Every method forwards to the live builder immediately; when
    ``recording`` the call is also appended to :attr:`ops` in a
    symbolic, app-independent form (constant-pool references travel as
    ``(kind, symbol)``, instrument fields as their suffix).  An op is
    built only while :attr:`ops` is a list: a writer that does not
    record makes none.  A body that takes a non-portable path
    (reflective bridge invoke) calls :meth:`disable` and is simply not
    cached.
    """

    def __init__(self, reassembler, mb, record: MethodRecord,
                 recording: bool) -> None:
        self.reassembler = reassembler
        self.mb = mb
        self.record = record
        self.ops: list | None = [] if recording else None

    def disable(self) -> None:
        self.ops = None

    # -- forwarded emitters -------------------------------------------------

    def raw(self, name: str, *operands: int) -> None:
        self.mb.raw(name, *operands)
        if self.ops is not None:
            self.ops.append(["raw", name, list(operands)])

    def move(self, dst: int, src: int) -> None:
        self.mb.move(dst, src)
        if self.ops is not None:
            self.ops.append(["move", dst, src])

    def move_object(self, dst: int, src: int) -> None:
        self.mb.move_object(dst, src)
        if self.ops is not None:
            self.ops.append(["moveo", dst, src])

    def sym(self, name: str, kind: IndexKind, symbol: str,
            pre: list, post: list, outs: int = 0) -> None:
        """A pool-referencing instruction: intern now, record the symbol.

        ``pre``/``post`` are the register (and range-count) operands
        around the pool index — leading for 35c/3rc, trailing
        otherwise; at most one of them is non-empty.
        """
        mb = self.mb
        index = _intern(mb.dex, kind, symbol)
        mb.raw(name, *pre, index, *post)
        if outs:
            mb._outs = max(mb._outs, outs)
        if self.ops is not None:
            self.ops.append(["sym", name, _KIND_TAGS[kind], symbol,
                             list(pre), list(post), outs])

    def ifield_read(self, suffix: str, reg: int) -> None:
        """``sget-boolean`` of an instrument field derived from the record.

        The field name is recomputed from the record's signature at
        replay time, which also re-registers it with the replaying
        reassembler — keeping the generated ``<clinit>`` complete.
        """
        from repro.core.reassembler import INSTRUMENT_CLASS

        name = self.reassembler._new_instrument_field(
            self.record.signature, suffix)
        self.mb.field_op("sget-boolean", reg,
                         f"{INSTRUMENT_CLASS}->{name}:Z")
        if self.ops is not None:
            self.ops.append(["ifield", suffix, reg])

    def if_zero(self, cond: str, reg: int, label: str) -> None:
        self.mb.if_zero(cond, reg, label)
        if self.ops is not None:
            self.ops.append(["ifz", cond, reg, label])

    def label(self, name: str) -> None:
        self.mb.label(name)
        if self.ops is not None:
            self.ops.append(["label", name])

    def goto_(self, label: str) -> None:
        self.mb.goto_(label)
        if self.ops is not None:
            self.ops.append(["goto", label])

    def branch(self, name: str, operands: tuple, label: str) -> None:
        self.mb._emit_branch(name, tuple(operands), label)
        if self.ops is not None:
            self.ops.append(["br", name, list(operands), label])

    def packed_switch(self, reg: int, first_key: int,
                      labels: list[str]) -> None:
        self.mb.packed_switch(reg, first_key, labels)
        if self.ops is not None:
            self.ops.append(["pswitch", reg, first_key, list(labels)])

    def sparse_switch(self, reg: int, cases: list[tuple[int, str]]) -> None:
        self.mb.sparse_switch(reg, cases)
        if self.ops is not None:
            self.ops.append(["sswitch", reg,
                             [[key, label] for key, label in cases]])

    def fill_array_data(self, reg: int, element_width: int,
                        values: list[int]) -> None:
        self.mb.fill_array_data(reg, element_width, values)
        if self.ops is not None:
            self.ops.append(["fill", reg, element_width, list(values)])

    def try_range(self, start_label: str, end_label: str,
                  handlers: list[tuple[str | None, str]]) -> None:
        self.mb.try_range(start_label, end_label, handlers)
        if self.ops is not None:
            self.ops.append(["try", start_label, end_label,
                             [[desc, label] for desc, label in handlers]])


def _intern(dex, kind: IndexKind, symbol: str) -> int:
    if kind is IndexKind.STRING:
        return dex.intern_string(symbol)
    if kind is IndexKind.TYPE:
        return dex.intern_type(symbol)
    if kind is IndexKind.FIELD:
        return dex.intern_field_ref(parse_field_signature(symbol))
    return dex.intern_method_ref(parse_method_signature(symbol))


_KIND_BY_TAG = {tag: kind for kind, tag in _KIND_TAGS.items()}


def replay_body(reassembler, class_builder, record: MethodRecord,
                ops: list) -> None:
    """Rebuild a method body from recorded ops in another app's DEX.

    The builder frame is reconstructed from the record (identical to
    the original's by digest equality), then each op re-performs the
    builder call the original emission made — including interning every
    symbol in the original order and re-registering instrument fields.
    """
    from repro.core.reassembler import INSTRUMENT_CLASS

    original_locals = record.registers_size - record.ins_size
    mb = class_builder.method(
        record.name,
        record.return_desc,
        record.param_descs,
        access=record.access_flags,
        locals_count=original_locals + 1,
    )
    mb._outs = max(mb._outs, record.outs_size)
    for op in ops:
        tag = op[0]
        if tag == "raw":
            mb.raw(op[1], *op[2])
        elif tag == "move":
            mb.move(op[1], op[2])
        elif tag == "moveo":
            mb.move_object(op[1], op[2])
        elif tag == "sym":
            _name, kind_tag, symbol, pre, post, outs = op[1:]
            index = _intern(mb.dex, _KIND_BY_TAG[kind_tag], symbol)
            mb.raw(_name, *pre, index, *post)
            if outs:
                mb._outs = max(mb._outs, outs)
        elif tag == "ifield":
            name = reassembler._new_instrument_field(record.signature, op[1])
            mb.field_op("sget-boolean", op[2],
                        f"{INSTRUMENT_CLASS}->{name}:Z")
        elif tag == "ifz":
            mb.if_zero(op[1], op[2], op[3])
        elif tag == "label":
            mb.label(op[1])
        elif tag == "goto":
            mb.goto_(op[1])
        elif tag == "br":
            mb._emit_branch(op[1], tuple(op[2]), op[3])
        elif tag == "pswitch":
            mb.packed_switch(op[1], op[2], list(op[3]))
        elif tag == "sswitch":
            mb.sparse_switch(op[1], [(key, label) for key, label in op[2]])
        elif tag == "fill":
            mb.fill_array_data(op[1], op[2], list(op[3]))
        elif tag == "try":
            mb.try_range(op[1], op[2],
                         [(desc, label) for desc, label in op[3]])
        else:
            raise ValueError(f"unknown body op {tag!r}")

