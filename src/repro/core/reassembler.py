"""Offline DEX reassembly (paper §IV-B and §IV-C — the key contribution).

Rebuilds a complete, valid DEX file from collection files:

* every collected class is re-created with its fields, static values,
  interfaces and superclass;
* each executed method's collection trees are converted to a single
  instruction array — divergence nodes (self-modifying code) become
  synthetic conditional branches on static fields of the instrument class
  ``Lcom/dexlego/Modification;`` so that *both* versions of modified code
  are reachable for static analysis (paper Code 4);
* multiple unique trees of one method become method *variants* selected
  by further instrument fields;
* reflective invokes observed at runtime are replaced by direct calls
  through generated bridge methods (§IV-D);
* linked-but-never-executed methods become default-return stubs (this is
  what removes dead-code false positives in Table II);
* never-executed branch edges are routed to a dead self-loop label.

The emitted DEX passes :func:`repro.dex.verify.assert_valid` and
re-executes in the interpreter (round-trip tests).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.body_cache import BodyWriter, replay_body
from repro.core.collector import CollectedClass, ReflectionSite
from repro.core.method_store import MethodRecord, MethodStore
from repro.core.tree import CollectedInstruction, TreeNode
from repro.dex.builder import ClassBuilder, DexBuilder, MethodBuilder
from repro.dex.constants import AccessFlags
from repro.dex.opcodes import IndexKind
from repro.dex.payloads import decode_payload
from repro.dex.sigs import parse_method_signature
from repro.dex.structures import DexFile
from repro.errors import ReassemblyError

INSTRUMENT_CLASS = "Lcom/dexlego/Modification;"
UNEXEC_LABEL = "__unexec"

_REFLECT_INVOKE_NAMES = frozenset({"invoke"})
_REFLECT_METHOD_CLASS = "Ljava/lang/reflect/Method;"


@dataclass
class _BridgeRequest:
    """A reflective site needing a generated direct-call bridge."""

    site: ReflectionSite
    bridge_name: str


class Reassembler:
    """Combines collection output into a new DexFile."""

    def __init__(
        self,
        classes: dict[str, CollectedClass],
        store: MethodStore,
        reflection_sites: dict[tuple[str, int], ReflectionSite] | None = None,
        body_cache=None,
        digests: dict | None = None,
    ) -> None:
        self.classes = classes
        self.store = store
        self.reflection_sites = reflection_sites or {}
        #: Optional ``get_body``/``put_body`` store (the corpus index):
        #: executed bodies whose exact digest is already known are
        #: *replayed* from their recorded op list instead of re-emitted.
        self.body_cache = body_cache
        #: The executed methods' digests by signature
        #: (:meth:`~repro.core.collection_files.CollectionArchive.method_digests`),
        #: required with a body cache, which is keyed by exact digest.
        self._digests = digests
        self.bodies_emitted = 0
        self.bodies_replayed = 0
        #: The last ``OSError`` a body-cache write raised, if any: the
        #: body was emitted all the same.
        self.body_write_error: OSError | None = None
        # Methods holding rewritten reflective invokes are never cached:
        # bridge numbering is global to one output DEX.
        self._uncacheable = {caller for caller, _pc in self.reflection_sites}
        self.builder = DexBuilder()
        self._instrument_fields: list[str] = []
        self._bridges: list[_BridgeRequest] = []
        self._bridge_by_site: dict[tuple[str, int], str] = {}

    # -- public entry -----------------------------------------------------

    def reassemble(self) -> DexFile:
        """Emit every class, then build the DEX: its methods are left
        to :meth:`DexBuilder.build`, which encodes them once the pools
        are in binary-format order."""
        self._plan_bridges()
        for descriptor in sorted(self.classes):
            self._emit_class(self.classes[descriptor])
        self._emit_instrument_class()
        return self.builder.build()

    # -- bridges for reflective calls ----------------------------------------

    def _plan_bridges(self) -> None:
        for key in sorted(self.reflection_sites):
            site = self.reflection_sites[key]
            name = f"bridge_{len(self._bridges)}"
            self._bridges.append(_BridgeRequest(site, name))
            self._bridge_by_site[key] = name

    # -- classes ---------------------------------------------------------------

    def _emit_class(self, collected: CollectedClass) -> None:
        interfaces = tuple(collected.interface_descs)
        class_builder = self.builder.add_class(
            collected.descriptor,
            superclass=collected.superclass_desc or "Ljava/lang/Object;",
            access=collected.access_flags,
            interfaces=interfaces,
        )
        for collected_field in collected.fields:
            if collected_field.access_flags & AccessFlags.STATIC:
                class_builder.add_static_field(
                    collected_field.name,
                    collected_field.type_desc,
                    collected_field.access_flags,
                    _decode_static(collected_field.static_value),
                )
            else:
                class_builder.add_instance_field(
                    collected_field.name,
                    collected_field.type_desc,
                    collected_field.access_flags,
                )
        for signature in collected.method_signatures:
            record = self.store.get(signature)
            if record is None:
                continue
            self._emit_method(class_builder, record)

    # -- methods -------------------------------------------------------------------

    def _emit_method(self, class_builder: ClassBuilder, record: MethodRecord) -> None:
        access = record.access_flags
        if record.is_native or access & AccessFlags.NATIVE:
            class_builder.method(
                record.name, record.return_desc, record.param_descs,
                access=access | int(AccessFlags.NATIVE), native=True,
            )
            return
        if access & AccessFlags.ABSTRACT:
            class_builder.method(
                record.name, record.return_desc, record.param_descs,
                access=access, abstract=True,
            )
            return
        if not record.executed:
            self._emit_stub(class_builder, record)
            return
        digest = None
        if self.body_cache is not None \
                and record.signature not in self._uncacheable:
            digest = self._digests[record.signature].exact
            ops = self.body_cache.get_body(digest)
            if ops is not None:
                replay_body(self, class_builder, record, ops)
                self.bodies_replayed += 1
                return
        ops = self._emit_collected_body(class_builder, record,
                                        recording=digest is not None)
        self.bodies_emitted += 1
        if digest is not None and ops is not None:
            try:
                self.body_cache.put_body(digest, ops)
            except OSError as exc:
                self.body_write_error = exc

    def _emit_stub(self, class_builder: ClassBuilder, record: MethodRecord) -> None:
        """Default-return stub for a linked-but-never-executed method."""
        mb = class_builder.method(
            record.name, record.return_desc, record.param_descs,
            access=record.access_flags, locals_count=2,
        )
        ret = record.return_desc
        if ret == "V":
            mb.ret_void()
        elif ret in ("J", "D"):
            mb.const_wide(0, 0)
            mb.ret_wide(0)
        elif ret.startswith(("L", "[")):
            mb.const(0, 0)
            mb.ret_object(0)
        else:
            mb.const(0, 0)
            mb.ret(0)

    # -- collected bodies ---------------------------------------------------------

    def _emit_collected_body(
        self, class_builder: ClassBuilder, record: MethodRecord,
        recording: bool = False,
    ) -> list | None:
        """Emit an executed body; returns its portable op list if recorded.

        All builder interactions go through one :class:`BodyWriter`, so
        a recording pass captures exactly the calls replay must make.
        """
        trees = record.trees
        original_locals = record.registers_size - record.ins_size
        # One extra register (the scratch used by divergence selectors and
        # the variant dispatcher), reserved via a parameter-shift prologue.
        mb = class_builder.method(
            record.name,
            record.return_desc,
            record.param_descs,
            access=record.access_flags,
            locals_count=original_locals + 1,
        )
        mb._outs = max(mb._outs, record.outs_size)
        writer = BodyWriter(self, mb, record, recording)
        scratch = record.registers_size  # top register of the grown frame
        self._emit_prologue(writer, record, original_locals)

        if len(trees) > 1:
            # Variant dispatcher (paper: "merging instruction arrays").
            for variant in range(1, len(trees)):
                writer.ifield_read(f"variant_{variant}", scratch)
                writer.if_zero("ne", scratch, f"v{variant}_entry")
        needs_unexec = False
        for variant, tree in enumerate(trees):
            writer.label(f"v{variant}_entry")
            emitter = _TreeEmitter(
                self, writer, record, tree.root, prefix=f"v{variant}",
                scratch=scratch,
            )
            emitter.emit()
            needs_unexec = needs_unexec or emitter.used_unexec
        if needs_unexec:
            writer.label(UNEXEC_LABEL)
            writer.goto_(UNEXEC_LABEL)
        self._emit_tries(writer, record, trees)
        return writer.ops

    def _emit_prologue(
        self, writer: BodyWriter, record: MethodRecord, original_locals: int
    ) -> None:
        """Shift incoming parameter words down one register.

        After the shift the collected instructions (which reference the
        original register numbers) run unmodified, and the top register
        is free as a scratch for instrument-field reads.
        """
        if record.ins_size == 0:
            return
        words: list[str] = []  # kind of each incoming word
        if not record.access_flags & AccessFlags.STATIC:
            words.append("object")
        for param in record.param_descs:
            if param in ("J", "D"):
                words.append("wide")
                words.append("wide-high")
            elif param.startswith(("L", "[")):
                words.append("object")
            else:
                words.append("single")
        old_base = original_locals  # original first-parameter register
        new_base = original_locals + 1
        index = 0
        while index < len(words):
            kind = words[index]
            dst = old_base + index
            src = new_base + index
            if kind == "wide":
                writer.raw(
                    "move-wide" if max(dst, src + 1) < 16 else "move-wide/from16",
                    dst, src,
                )
                index += 2
            elif kind == "object":
                writer.move_object(dst, src)
                index += 1
            else:
                writer.move(dst, src)
                index += 1

    def _emit_tries(self, writer: BodyWriter, record, trees) -> None:
        """Re-attach collected try blocks onto the variant-0 layout.

        Regions are clipped to the instructions that actually executed;
        the end label was planted right after the last covered instruction
        during emission (see ``_TreeEmitter``).  Divergence blocks emitted
        after the main stream fall outside the region — a documented
        approximation (DESIGN.md).
        """
        if not record.tries or not trees:
            return
        root = trees[0].root
        recorded = {c.dex_pc for c in root.il}
        sorted_pcs = sorted(recorded)
        for try_block in record.tries:
            covered = [
                pc for pc in sorted_pcs
                if try_block.start_addr <= pc < try_block.start_addr + try_block.insn_count
            ]
            if not covered:
                continue  # region never executed
            start_label = f"v0_n0_L{covered[0]}"
            end_label = f"v0_try_end_{try_block.start_addr}"
            handlers: list[tuple[str | None, str]] = []
            for type_desc, addr in try_block.handlers:
                handlers.append((type_desc, self._handler_label(root, addr)))
            if try_block.catch_all is not None:
                handlers.append((None, self._handler_label(root, try_block.catch_all)))
            writer.try_range(start_label, end_label, handlers)

    def _handler_label(self, root: TreeNode, addr: int) -> str:
        if root.lookup(addr) is not None:
            return f"v0_n0_L{addr}"
        return UNEXEC_LABEL

    # -- instrument class --------------------------------------------------------

    def _new_instrument_field(self, signature: str, suffix: str) -> str:
        base = _munge(signature)
        name = f"{base}_{suffix}"
        if name not in self._instrument_fields:
            self._instrument_fields.append(name)
        return name

    def _emit_instrument_class(self) -> None:
        if not self._instrument_fields and not self._bridges:
            return
        class_builder = self.builder.add_class(INSTRUMENT_CLASS)
        for name in self._instrument_fields:
            class_builder.add_static_field(name, "Z", initial=False)
        if self._instrument_fields:
            self._emit_instrument_clinit(class_builder)
        for request in self._bridges:
            self._emit_bridge(class_builder, request)

    def _emit_instrument_clinit(self, class_builder: ClassBuilder) -> None:
        """<clinit> assigning each field an opaque pseudo-random value.

        The value comes from currentTimeMillis so no static analyzer can
        constant-fold it: both sides of every synthetic branch stay
        reachable (the paper's "static field ... with random values").
        """
        mb = class_builder.method(
            "<clinit>", "V", (),
            access=int(AccessFlags.STATIC | AccessFlags.CONSTRUCTOR),
            locals_count=4,
        )
        mb.invoke("static", "Ljava/lang/System;->currentTimeMillis()J")
        mb.raw("move-result-wide", 0)
        mb.raw("long-to-int", 0, 0)
        for offset, name in enumerate(self._instrument_fields):
            mb.raw("add-int/lit8", 2, 0, offset % 128)
            mb.raw("and-int/lit8", 2, 2, 1)
            mb.field_op("sput-boolean", 2, f"{INSTRUMENT_CLASS}->{name}:Z")
        mb.ret_void()

    def _emit_bridge(self, class_builder: ClassBuilder, request: _BridgeRequest) -> None:
        """Direct-call bridge replacing one reflective invoke site."""
        site = request.site
        targets = site.targets
        locals_needed = 4
        for signature in targets:
            ref = parse_method_signature(signature)
            locals_needed = max(locals_needed, len(ref.param_descs) + 3)
        mb = class_builder.method(
            request.bridge_name,
            "Ljava/lang/Object;",
            ("Ljava/lang/Object;", "[Ljava/lang/Object;"),
            access=int(AccessFlags.PUBLIC | AccessFlags.STATIC),
            locals_count=locals_needed,
        )
        for index, signature in enumerate(targets):
            if index > 0:
                mb.label(f"target_{index}")
            if index < len(targets) - 1:
                # Several distinct targets were observed at this site:
                # select between them with instrument fields, exactly like
                # divergence branches.
                field_name = f"{_munge(site.caller_signature)}_{site.dex_pc}_t{index}"
                class_builder.add_static_field(field_name, "Z", initial=False)
                mb.field_op(
                    "sget-boolean", 0, f"{INSTRUMENT_CLASS}->{field_name}:Z"
                )
                mb.if_zero("eq", 0, f"target_{index + 1}")
            self._emit_bridge_call(mb, signature, site.target_static[signature])

    def _emit_bridge_call(
        self, mb: MethodBuilder, signature: str, is_static: bool
    ) -> None:
        ref = parse_method_signature(signature)
        arg_base = 0
        index_reg = len(ref.param_descs) + 1
        receiver_reg = len(ref.param_descs) + 2
        regs: list[int] = []
        if not is_static:
            mb.move_object(receiver_reg, mb.p(0))
            mb.check_cast(receiver_reg, ref.class_desc)
            regs.append(receiver_reg)
        for i, param in enumerate(ref.param_descs):
            mb.const(index_reg, i)
            mb.raw("aget-object", arg_base + i, mb.p(1), index_reg)
            if param.startswith(("L", "[")):
                if param != "Ljava/lang/Object;":
                    mb.check_cast(arg_base + i, param)
            elif param == "I":
                mb.check_cast(arg_base + i, "Ljava/lang/Integer;")
                mb.invoke("virtual", "Ljava/lang/Integer;->intValue()I", arg_base + i)
                mb.raw("move-result", arg_base + i)
            elif param == "Z":
                mb.check_cast(arg_base + i, "Ljava/lang/Boolean;")
                mb.invoke("virtual", "Ljava/lang/Boolean;->booleanValue()Z", arg_base + i)
                mb.raw("move-result", arg_base + i)
            else:
                raise ReassemblyError(
                    f"bridge for {signature}: unsupported param type {param}"
                )
            regs.append(arg_base + i)
        kind = "static" if is_static else "virtual"
        mb.invoke(kind, signature, *regs)
        ret = ref.return_desc
        if ret == "V":
            mb.const(0, 0)
            mb.ret_object(0)
        elif ret.startswith(("L", "[")):
            mb.raw("move-result-object", 0)
            mb.ret_object(0)
        elif ret == "I":
            mb.raw("move-result", 0)
            mb.invoke("static", "Ljava/lang/Integer;->valueOf(I)Ljava/lang/Integer;", 0)
            mb.raw("move-result-object", 0)
            mb.ret_object(0)
        elif ret == "Z":
            mb.raw("move-result", 0)
            mb.invoke("static", "Ljava/lang/Boolean;->valueOf(Z)Ljava/lang/Boolean;", 0)
            mb.raw("move-result-object", 0)
            mb.ret_object(0)
        else:
            raise ReassemblyError(
                f"bridge for {signature}: unsupported return type {ret}"
            )


class _TreeEmitter:
    """Emits one collection tree as a label-relative instruction stream."""

    def __init__(
        self,
        reassembler: Reassembler,
        writer: BodyWriter,
        record: MethodRecord,
        root: TreeNode,
        prefix: str,
        scratch: int,
    ) -> None:
        self.reassembler = reassembler
        self.w = writer
        self.record = record
        self.root = root
        self.prefix = prefix
        self.scratch = scratch
        self.used_unexec = False
        self._node_ids: dict[int, int] = {}
        self._number_nodes(root)

    def _number_nodes(self, node: TreeNode, counter: list[int] | None = None) -> None:
        if counter is None:
            counter = [0]
        self._node_ids[id(node)] = counter[0]
        counter[0] += 1
        for child in node.children:
            self._number_nodes(child, counter)

    # -- labels ---------------------------------------------------------------

    def _label(self, node: TreeNode, dex_pc: int) -> str:
        return f"{self.prefix}_n{self._node_ids[id(node)]}_L{dex_pc}"

    def _resolve(self, node: TreeNode, dex_pc: int) -> str:
        """Resolve a branch / fall-through target pc to a label."""
        walker: TreeNode | None = node
        while walker is not None:
            if walker.lookup(dex_pc) is not None:
                return self._label(walker, dex_pc)
            walker = walker.parent
        self.used_unexec = True
        return UNEXEC_LABEL

    # -- emission ----------------------------------------------------------------

    def emit(self) -> None:
        pending: list[TreeNode] = [self.root]
        emitted: list[TreeNode] = []
        while pending:
            node = pending.pop(0)
            self._emit_node(node)
            emitted.append(node)
            pending.extend(node.children)

    def _emit_node(self, node: TreeNode) -> None:
        w = self.w
        ordered = sorted(node.il, key=lambda c: c.dex_pc)
        divergences_at: dict[int, list[TreeNode]] = {}
        for child in node.children:
            divergences_at.setdefault(child.sm_start, []).append(child)
        try_ends_after = self._try_end_plan(node, ordered)
        for position, collected in enumerate(ordered):
            dex_pc = collected.dex_pc
            w.label(self._label(node, dex_pc))
            for child in divergences_at.get(dex_pc, ()):
                self._emit_selector(child)
            self._emit_instruction(node, collected)
            for end_label in try_ends_after.get(dex_pc, ()):
                w.label(end_label)
            self._emit_fallthrough(node, ordered, position, collected)

    def _try_end_plan(self, node: TreeNode, ordered) -> dict[int, list[str]]:
        """Plan try-region end labels right after the last covered pc."""
        plan: dict[int, list[str]] = {}
        if node.parent is not None or self.prefix != "v0":
            return plan
        pcs = [c.dex_pc for c in ordered]
        for try_block in self.record.tries:
            covered = [
                pc for pc in pcs
                if try_block.start_addr <= pc
                < try_block.start_addr + try_block.insn_count
            ]
            if covered:
                plan.setdefault(covered[-1], []).append(
                    f"{self.prefix}_try_end_{try_block.start_addr}"
                )
        return plan

    def _emit_selector(self, child: TreeNode) -> None:
        """The synthetic divergence branch of paper Code 4.

        Jumps to the child's ``sm_start`` instruction (its entry point);
        the child block itself is emitted after the parent stream.
        """
        self.w.ifield_read(
            f"{self.prefix}_sm_{self._node_ids[id(child)]}", self.scratch
        )
        self.w.if_zero("ne", self.scratch, self._label(child, child.sm_start))

    def _emit_fallthrough(
        self,
        node: TreeNode,
        ordered: list[CollectedInstruction],
        position: int,
        collected: CollectedInstruction,
    ) -> None:
        """Preserve (or dead-end) the fall-through edge across gaps."""
        ins = collected.instruction
        if not ins.opcode.can_continue:
            return
        next_pc = collected.dex_pc + len(collected.units)
        if position + 1 < len(ordered) and ordered[position + 1].dex_pc == next_pc:
            return  # natural fall-through
        self.w.goto_(self._resolve(node, next_pc))

    def _emit_instruction(self, node: TreeNode, collected: CollectedInstruction) -> None:
        w = self.w
        ins = collected.instruction
        name = ins.name
        opcode = ins.opcode

        if opcode.is_switch:
            self._emit_switch(node, collected, ins)
            return
        if name == "fill-array-data":
            payload = decode_payload(list(collected.payload_units), 0)
            w.fill_array_data(ins.operands[0], payload.element_width,
                              payload.elements())
            return
        if opcode.is_branch:
            target = collected.dex_pc + ins.branch_target
            label = self._resolve(node, target)
            if not opcode.is_conditional_branch:
                w.goto_(label)
            else:
                w.branch(name, ins.operands[:-1], label)
            return
        if opcode.is_invoke:
            self._emit_invoke(node, collected, ins)
            return
        kind = opcode.index_kind
        if kind is IndexKind.NONE:
            w.raw(name, *ins.operands)
            return
        symbol = collected.symbol
        if symbol is None:
            raise ReassemblyError(
                f"{self.record.signature}@{collected.dex_pc}: "
                f"{name} collected without symbol"
            )
        if opcode.fmt in ("35c", "3rc"):
            w.sym(name, kind, symbol, pre=[], post=list(ins.operands[1:]))
        else:
            w.sym(name, kind, symbol, pre=list(ins.operands[:-1]), post=[])

    def _emit_switch(self, node: TreeNode, collected, ins) -> None:
        payload = decode_payload(list(collected.payload_units), 0)
        reg = ins.operands[0]
        labels = [
            self._resolve(node, collected.dex_pc + target)
            for target in payload.targets
        ]
        if ins.name == "packed-switch":
            self.w.packed_switch(reg, payload.first_key, labels)
        else:
            self.w.sparse_switch(reg, list(zip(payload.keys, labels)))

    def _emit_invoke(self, node: TreeNode, collected, ins) -> None:
        w = self.w
        symbol = collected.symbol
        ref = parse_method_signature(symbol)
        site_key = (self.record.signature, collected.dex_pc)
        bridge = self.reassembler._bridge_by_site.get(site_key)
        if (
            bridge is not None
            and ref.class_desc == _REFLECT_METHOD_CLASS
            and ref.name in _REFLECT_INVOKE_NAMES
        ):
            # §IV-D: replace Method.invoke with a direct call through the
            # generated bridge.  Registers: {method, receiver, args[]}.
            # Bridge numbering is app-global, so this body is uncacheable.
            w.disable()
            regs = ins.invoke_registers
            receiver_reg = regs[1] if len(regs) > 1 else regs[0]
            args_reg = regs[2] if len(regs) > 2 else regs[0]
            w.mb.invoke(
                "static",
                f"{INSTRUMENT_CLASS}->{bridge}"
                "(Ljava/lang/Object;[Ljava/lang/Object;)Ljava/lang/Object;",
                receiver_reg,
                args_reg,
            )
            return
        from repro.dex.sigs import method_arg_width

        is_static = "static" in ins.name
        width = method_arg_width(ref, is_static=is_static)
        if ins.opcode.fmt == "35c":
            post = list(ins.operands[1:])
        else:
            post = [ins.operands[1], ins.operands[2]]
        w.sym(ins.name, IndexKind.METHOD, symbol, pre=[], post=post,
              outs=width)


def _munge(signature: str) -> str:
    out = []
    for ch in signature:
        out.append(ch if ch.isalnum() else "_")
    text = "".join(out)
    while "__" in text:
        text = text.replace("__", "_")
    return text.strip("_")


def _decode_static(tagged: tuple):
    kind = tagged[0]
    if kind == "null":
        return None
    if kind == "string":
        return str(tagged[1])
    if kind == "bool":
        return bool(tagged[1])
    if kind == "int":
        return int(tagged[1])
    if kind == "float":
        return float(tagged[1])
    return None
