"""Builder and assembler tests: layout, labels, payloads, errors."""

import pytest

from repro.dex import DexBuilder, assemble, assert_valid, disassemble, write_dex, read_dex
from repro.dex.instructions import Instruction
from repro.errors import AssemblyError


class TestBuilderLayout:
    def test_forward_and_backward_branches(self):
        builder = DexBuilder()
        cls = builder.add_class("Lt/B;")
        mb = cls.method("m", "I", ("I",), locals_count=2)
        mb.const(0, 0)
        mb.label("top")
        mb.raw("add-int/lit8", 0, 0, 1)
        mb.if_op("lt", 0, mb.p(1), "top")
        mb.ret(0)
        method = mb.build()
        instructions = method.code.instructions()
        branch = next(ins for _pc, ins in instructions if ins.name == "if-lt")
        pc = next(pc for pc, ins in instructions if ins.name == "if-lt")
        assert pc + branch.branch_target == 1  # back to add-int

    def test_parameter_register_mapping(self):
        builder = DexBuilder()
        cls = builder.add_class("Lt/P;")
        mb = cls.method("m", "V", ("I", "J", "Ljava/lang/Object;"),
                        locals_count=3)
        # this=p0 at 3; I at 4; J at 5/6; L at 7; total registers = 8
        assert mb.p(0) == 3
        assert mb.registers_size == 8
        mb.ret_void()
        assert mb.build().code.ins_size == 5

    def test_static_method_has_no_this(self):
        builder = DexBuilder()
        cls = builder.add_class("Lt/S;")
        mb = cls.method("m", "V", ("I",), access=0x9, locals_count=1)
        mb.ret_void()
        assert mb.build().code.ins_size == 1

    def test_duplicate_label_rejected(self):
        builder = DexBuilder()
        mb = builder.add_class("Lt/D;").method("m", "V", ())
        mb.label("x")
        with pytest.raises(AssemblyError):
            mb.label("x")

    def test_undefined_label_rejected(self):
        builder = DexBuilder()
        mb = builder.add_class("Lt/U;").method("m", "V", ())
        mb.goto_("nowhere")
        mb.ret_void()
        with pytest.raises(AssemblyError):
            mb.build()

    def test_duplicate_class_rejected(self):
        builder = DexBuilder()
        builder.add_class("Lt/C;")
        with pytest.raises(AssemblyError):
            builder.add_class("Lt/C;")

    def test_outs_size_tracks_invokes(self):
        builder = DexBuilder()
        cls = builder.add_class("Lt/O;")
        mb = cls.method("m", "V", (), locals_count=6)
        mb.invoke("static", "Lx/Y;->wide(JJ)V", 0, 1, 2, 3)
        mb.ret_void()
        assert mb.build().code.outs_size == 4

    def test_payload_alignment_is_even(self):
        builder = DexBuilder()
        cls = builder.add_class("Lt/A;")
        mb = cls.method("m", "V", (), locals_count=2)
        mb.const(0, 1)  # 1 unit -> switch lands at odd pc without padding
        mb.packed_switch(0, 0, ["done"])
        mb.label("done")
        mb.ret_void()
        code = mb.build().code
        switch = next(
            (pc, ins) for pc, ins in code.instructions()
            if ins.name == "packed-switch"
        )
        payload_pos = switch[0] + switch[1].branch_target
        assert payload_pos % 2 == 0

    def test_range_invoke_requires_contiguous(self):
        builder = DexBuilder()
        mb = builder.add_class("Lt/R;").method("m", "V", (), locals_count=20)
        with pytest.raises(AssemblyError):
            mb.invoke("virtual", "Lx/Y;->many(IIIIII)V", 1, 2, 4, 5, 6, 7)


def _out_of_order_builder(build_methods: bool) -> DexBuilder:
    """Code referencing strings, types, fields and methods interned out
    of binary-format order, a try handler whose type only it names, and
    a payload; each method built at once, or left for ``build()``."""
    builder = DexBuilder()
    zeta = builder.add_class("Lt/Zeta;")
    zeta.add_static_field("count", "I")
    run = zeta.method("run", "V", ("Ljava/lang/String;",), locals_count=3)
    run.label("start")
    run.const_string(0, "zulu")
    run.const_string(1, "alpha")
    run.new_instance(0, "Lt/Alpha;")
    run.invoke("direct", "Lt/Alpha;-><init>()V", 0)
    run.field_op("sget", 2, "Lt/Zeta;->count:I")
    run.packed_switch(2, 0, ["end"])
    run.invoke("static", "Ljava/lang/System;->currentTimeMillis()J")
    run.label("end")
    run.ret_void()
    run.label("handler")
    run.ret_void()
    run.try_range("start", "end", [("Lt/Boom;", "handler"),
                                   (None, "handler")])
    alpha = builder.add_class("Lt/Alpha;")
    init = alpha.method("<init>", "V", (), locals_count=0)
    init.invoke("direct", "Ljava/lang/Object;-><init>()V", init.p(0))
    init.ret_void()
    alpha.method("poke", "V", (), native=True)
    if build_methods:
        for mb in (run, init):
            mb.build()
    return builder


def _counting_decodes(monkeypatch) -> list:
    decode = Instruction.decode_at.__func__
    calls = []

    def counting(cls, units, pos):
        calls.append(pos)
        return decode(cls, units, pos)

    monkeypatch.setattr(Instruction, "decode_at", classmethod(counting))
    return calls


class TestBuildAfterSort:
    """Methods left for ``DexBuilder.build`` are encoded once the pools
    are sorted: same bytes as methods built at once, and ``write_dex``
    decodes nothing."""

    def test_same_bytes_without_a_remap(self, monkeypatch):
        eager = write_dex(_out_of_order_builder(True).build())
        dex = _out_of_order_builder(False).build()
        calls = _counting_decodes(monkeypatch)
        assert write_dex(dex) == eager
        assert calls == []
        monkeypatch.undo()
        assert_valid(read_dex(eager))

    def test_built_methods_are_left_as_they_stand(self):
        builder = _out_of_order_builder(True)
        strings = list(builder.dex.strings)
        assert builder.build().strings == strings

    def test_a_reference_interned_after_build_is_remapped(self,
                                                          monkeypatch):
        eager = _out_of_order_builder(True).build()
        deferred = _out_of_order_builder(False).build()
        for dex in (eager, deferred):
            dex.intern_string("AAA")  # sorts first: every index moves
        expected = write_dex(eager)
        calls = _counting_decodes(monkeypatch)
        assert write_dex(deferred) == expected
        assert calls  # the permutation check still remaps


class TestAssembler:
    def test_comments_and_blank_lines(self):
        dex = assemble("""
# leading comment
.class public Lt/Cmt;   # trailing comment
.super Ljava/lang/Object;

.method public m()V  # another
    .registers 1
    return-void      # done
.end method
""")
        assert dex.find_class("Lt/Cmt;") is not None

    def test_string_with_escapes_and_hash(self):
        dex = assemble('''
.class public Lt/Esc;
.super Ljava/lang/Object;
.method public m()Ljava/lang/String;
    .registers 2
    const-string v0, "has # hash and \\"quote\\""
    return-object v0
.end method
''')
        assert 'has # hash and "quote"' in dex.strings

    def test_sparse_switch(self):
        dex = assemble("""
.class public Lt/Sw;
.super Ljava/lang/Object;
.method public static pick(I)I
    .registers 2
    sparse-switch p0, :table
    const/4 v0, 0
    return v0
    :a
    const/16 v0, 10
    return v0
    :b
    const/16 v0, 20
    return v0
    :table
    .sparse-switch
        -5 -> :a
        1000 -> :b
    .end sparse-switch
.end method
""")
        assert_valid_roundtrip(dex)

    def test_unknown_instruction(self):
        with pytest.raises(AssemblyError):
            assemble("""
.class public Lt/Bad;
.super Ljava/lang/Object;
.method public m()V
    .registers 1
    frobnicate v0
.end method
""")

    def test_missing_end_method(self):
        with pytest.raises(AssemblyError):
            assemble("""
.class public Lt/Open;
.super Ljava/lang/Object;
.method public m()V
    .registers 1
    return-void
""")

    def test_registers_after_code_rejected(self):
        with pytest.raises(AssemblyError):
            assemble("""
.class public Lt/Late;
.super Ljava/lang/Object;
.method public m()V
    return-void
    .registers 3
.end method
""")

    def test_goto_upgraded_to_16bit(self):
        dex = assemble("""
.class public Lt/Go;
.super Ljava/lang/Object;
.method public m()V
    .registers 1
    goto :end
    :end
    return-void
.end method
""")
        method = dex.find_class("Lt/Go;").all_methods()[0]
        names = [ins.name for _pc, ins in method.code.instructions()]
        assert "goto/16" in names

    def test_multi_unit_accumulation(self):
        builder = DexBuilder()
        assemble(".class public Lt/M1;\n.super Ljava/lang/Object;", builder)
        assemble(".class public Lt/M2;\n.super Ljava/lang/Object;", builder)
        assert len(builder.dex.class_defs) == 2


class TestDisassembler:
    def test_output_reassembles(self):
        source = """
.class public Lt/Round;
.super Landroid/app/Activity;
.field public static LABEL:Ljava/lang/String; = "x"

.method public m(I)I
    .registers 4
    const/4 v0, 0
    if-ge p1, v0, :pos
    neg-int v0, p1
    return v0
    :pos
    return p1
.end method
"""
        dex = assemble(source)
        text = disassemble(dex)
        dex2 = assemble(text)
        # Same classes, same instruction stream shapes.
        m1 = dex.find_class("Lt/Round;").all_methods()[0]
        m2 = dex2.find_class("Lt/Round;").all_methods()[0]
        names1 = [i.name for _pc, i in m1.code.instructions()]
        names2 = [i.name for _pc, i in m2.code.instructions()]
        assert names1 == names2


def assert_valid_roundtrip(dex):
    reread = read_dex(write_dex(dex))
    assert_valid(reread)
    return reread
