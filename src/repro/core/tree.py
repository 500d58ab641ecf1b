"""Collection tree: the data structure of paper Figure 3 / Algorithm 1.

Each execution of a method produces one :class:`CollectionTree`.  Nodes
hold an Instruction List (IL, first-execution order) and an Instruction
Index Map (IIM, ``dex_pc`` -> IL index).  A *divergence* — a different
instruction observed at an already-recorded ``dex_pc`` — forks a child
node (``sm_start``); the child *converges* back to its parent when an
instruction matching the parent's record reappears (``sm_end``).  Nested
self-modification simply nests nodes.

A tree's :meth:`CollectionTree.fingerprint` is its identity for
deduplication.  A childless tree's is ``(signature, (0, first visits,
()))``, each first visit a ``(dex_pc, units, payload_units)`` triple,
which is how a replay collector (``repro.core.collector``) decides at
method exit, from its log of first visits, whether a frame repeated a
tree already held without building it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

from repro.dex.instructions import Instruction


@dataclass(frozen=True)
class CollectedInstruction:
    """One recorded instruction: position, raw units and optional payload.

    ``units`` (the raw encoding) is the identity used by ``SameIns``;
    ``payload_units`` snapshots switch/array data referenced by 31t
    instructions so the reassembler can re-materialise it; ``symbol`` is
    the constant-pool reference resolved at collection time (string value,
    type descriptor, field or method signature) — the "related objects"
    the paper collects alongside each instruction, which is what lets the
    offline reassembler re-intern references into a fresh DEX without the
    original constant pool.

    ``ins`` is ``units`` decoded: the instruction the interpreter
    executed, or ``None`` until :attr:`instruction` first decodes it (a
    tree loaded from rows).  It is a cache, not part of the identity:
    equality, hashing, fingerprints and every serialised form leave it
    out.
    """

    dex_pc: int
    units: tuple[int, ...]
    payload_units: tuple[int, ...] | None = None
    symbol: str | None = None
    ins: Instruction | None = field(default=None, compare=False, repr=False)

    @property
    def instruction(self) -> Instruction:
        ins = self.ins
        if ins is None:
            ins = Instruction.decode_at(list(self.units), 0)
            object.__setattr__(self, "ins", ins)
        return ins

    def same_ins(self, other_units: tuple[int, ...]) -> bool:
        return self.units == other_units


# -- the length of the indent=1 render, without rendering -----------------
#
# ``bytecode.json`` is ``json.dumps([tree.to_dict() ...], indent=1)``;
# ``rendered_size`` beside each ``to_dict`` counts that render's length
# from the same fields.  ``indent=1`` is the compact render with
# whitespace added: a newline and the indentation before every item of
# a non-empty container and before its closing bracket, and a space
# after every key's colon.  Items of a container that starts on a line
# indented ``level`` spaces are indented ``level + 1``.  Strings are
# ASCII (``ensure_ascii``), so characters are bytes.


def _list_size(items: int, inner: int, level: int) -> int:
    """Render length of a list at ``level`` whose ``items`` items render
    to ``inner`` characters in all."""
    return inner + items * (level + 3) + level + 2 if items else 2


def _dict_size(items: int, inner: int, level: int) -> int:
    """Render length of a dict at ``level`` whose quoted keys and values
    render to ``inner`` characters in all."""
    return inner + items * (level + 5) + level + 2 if items else 2


def _ints_size(values, level: int) -> int:
    """Render length of a list of ints at ``level`` (json renders an
    int, of any int subclass, as ``int.__repr__`` does).  A plain loop:
    ``map`` objects would be allocations the cyclic GC counts."""
    if not values:
        return 2
    size = len(values) * (level + 3) + level + 2
    for value in values:
        size += len(int.__repr__(value))
    return size


def _keys(*names: str) -> int:
    """Render length of dict keys, quoted."""
    return sum(len(name) + 2 for name in names)


#: The keys ``to_dict`` writes: a tree's, a node's, and an IL entry's
#: fixed and optional ones.
_TREE_KEYS = _keys("method", "registers_size", "ins_size", "outs_size",
                   "root")
_NODE_KEYS = _keys("sm_start", "sm_end", "il", "children")
_ENTRY_KEYS = _keys("dex_pc", "units")
_PAYLOAD_KEY = _keys("payload")
_SYMBOL_KEY = _keys("symbol")


class TreeNode:
    """One node of the collection tree (paper Figure 3, left)."""

    __slots__ = ("il", "iim", "sm_start", "sm_end", "parent", "children")

    def __init__(self, parent: "TreeNode | None" = None, sm_start: int = 0) -> None:
        self.il: list[CollectedInstruction] = []
        self.iim: dict[int, int] = {}
        self.sm_start = sm_start
        self.sm_end = -1
        self.parent = parent
        self.children: list[TreeNode] = []
        if parent is not None:
            parent.children.append(self)

    def record(self, collected: CollectedInstruction) -> None:
        self.iim[collected.dex_pc] = len(self.il)
        self.il.append(collected)

    def lookup(self, dex_pc: int) -> CollectedInstruction | None:
        index = self.iim.get(dex_pc)
        return self.il[index] if index is not None else None

    def instruction_count(self, recursive: bool = True) -> int:
        total = len(self.il)
        if recursive:
            total += sum(c.instruction_count(True) for c in self.children)
        return total

    def depth(self) -> int:
        """Nesting depth below this node (0 for a leaf)."""
        if not self.children:
            return 0
        return 1 + max(child.depth() for child in self.children)

    def to_dict(self) -> dict:
        return {
            "sm_start": self.sm_start,
            "sm_end": self.sm_end,
            "il": [
                {
                    "dex_pc": c.dex_pc,
                    "units": list(c.units),
                    **(
                        {"payload": list(c.payload_units)}
                        if c.payload_units is not None
                        else {}
                    ),
                    **({"symbol": c.symbol} if c.symbol is not None else {}),
                }
                for c in self.il
            ],
            "children": [child.to_dict() for child in self.children],
        }

    def rendered_size(self, level: int) -> int:
        """Length of :meth:`to_dict` rendered with ``indent=1``, opening
        on a line indented ``level`` spaces."""
        entry_level = level + 2  # each IL entry's dict
        per_key = entry_level + 5
        units_level = entry_level + 1
        # _dict_size of an entry with the two fixed keys, values aside.
        entry_base = _ENTRY_KEYS + 2 * per_key + entry_level + 2
        il = 0
        for c in self.il:
            size = entry_base + len(int.__repr__(c.dex_pc)) \
                + _ints_size(c.units, units_level)
            if c.payload_units is not None:
                size += _PAYLOAD_KEY + per_key + _ints_size(
                    c.payload_units, units_level)
            if c.symbol is not None:
                size += _SYMBOL_KEY + per_key + len(
                    encode_basestring_ascii(c.symbol))
            il += size
        children = sum(child.rendered_size(entry_level)
                       for child in self.children)
        return _dict_size(
            4, _NODE_KEYS + len(int.__repr__(self.sm_start))
            + len(int.__repr__(self.sm_end))
            + _list_size(len(self.il), il, level + 1)
            + _list_size(len(self.children), children, level + 1), level)

    @classmethod
    def from_dict(cls, data: dict, parent: "TreeNode | None" = None) -> "TreeNode":
        node = cls(parent, data["sm_start"])
        node.sm_end = data["sm_end"]
        for entry in data["il"]:
            node.record(
                CollectedInstruction(
                    entry["dex_pc"],
                    tuple(entry["units"]),
                    tuple(entry["payload"]) if "payload" in entry else None,
                    entry.get("symbol"),
                )
            )
        for child_data in data["children"]:
            cls.from_dict(child_data, node)
        return node

    def fingerprint(self) -> tuple:
        """Canonical identity used to deduplicate trees across executions."""
        return (
            self.sm_start,
            tuple((c.dex_pc, c.units, c.payload_units) for c in self.il),
            tuple(child.fingerprint() for child in self.children),
        )


class CollectionTree:
    """Per-execution tree plus method metadata the reassembler needs."""

    def __init__(
        self,
        method_signature: str,
        registers_size: int,
        ins_size: int,
        outs_size: int,
    ) -> None:
        self.method_signature = method_signature
        self.registers_size = registers_size
        self.ins_size = ins_size
        self.outs_size = outs_size
        self.root = TreeNode()
        self.current = self.root

    # -- Algorithm 1 ------------------------------------------------------

    def observe(self, collected: CollectedInstruction) -> None:
        """Feed one executing instruction through Algorithm 1."""
        current = self.current
        dex_pc = collected.dex_pc
        existing = current.lookup(dex_pc)
        if existing is not None:
            if existing.same_ins(collected.units):
                return  # same instruction at same position: skip
            # Divergence: the instruction at this dex_pc changed.
            child = TreeNode(parent=current, sm_start=dex_pc)
            self.current = child
            self.current.record(collected)
            return
        if current.parent is not None:
            parent_existing = current.parent.lookup(dex_pc)
            if parent_existing is not None and parent_existing.same_ins(
                collected.units
            ):
                # Convergence: this layer of self-modification ended.
                current.sm_end = dex_pc
                self.current = current.parent
                return
        current.record(collected)

    # -- stats / serialisation ---------------------------------------------

    def node_count(self) -> int:
        def count(node: TreeNode) -> int:
            return 1 + sum(count(c) for c in node.children)

        return count(self.root)

    def instruction_count(self) -> int:
        return self.root.instruction_count(recursive=True)

    def has_divergence(self) -> bool:
        return bool(self.root.children)

    def fingerprint(self) -> tuple:
        return (self.method_signature, self.root.fingerprint())

    def to_dict(self) -> dict:
        return {
            "method": self.method_signature,
            "registers_size": self.registers_size,
            "ins_size": self.ins_size,
            "outs_size": self.outs_size,
            "root": self.root.to_dict(),
        }

    def rendered_size(self, level: int) -> int:
        """Length of :meth:`to_dict` rendered with ``indent=1``, opening
        on a line indented ``level`` spaces."""
        return _dict_size(
            5, _TREE_KEYS
            + len(encode_basestring_ascii(self.method_signature))
            + len(int.__repr__(self.registers_size))
            + len(int.__repr__(self.ins_size))
            + len(int.__repr__(self.outs_size))
            + self.root.rendered_size(level + 1), level)

    @classmethod
    def from_dict(cls, data: dict) -> "CollectionTree":
        tree = cls(
            data["method"],
            data["registers_size"],
            data["ins_size"],
            data["outs_size"],
        )
        tree.root = TreeNode.from_dict(data["root"])
        tree.current = tree.root
        return tree


def trees_rendered_size(trees) -> int:
    """Length of ``[tree.to_dict() for tree in trees]`` rendered with
    ``indent=1`` (``bytecode.json``), counted without rendering."""
    count = inner = 0
    for tree in trees:
        count += 1
        inner += tree.rendered_size(1)
    return _list_size(count, inner, 0)

