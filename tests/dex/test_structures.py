"""DexFile model tests: interning, references, canonicalization."""

import pytest

from repro.dex import DexBuilder, DexFile, MethodRef, parse_method_signature
from repro.dex.sigs import method_arg_width, parse_field_signature, split_type_list
from repro.errors import AssemblyError


class TestInterning:
    def test_string_interning_is_stable(self):
        dex = DexFile()
        a = dex.intern_string("hello")
        b = dex.intern_string("hello")
        assert a == b
        assert dex.string(a) == "hello"

    def test_type_interning(self):
        dex = DexFile()
        idx = dex.intern_type("Lcom/a/B;")
        assert dex.type_descriptor(idx) == "Lcom/a/B;"
        assert dex.intern_type("Lcom/a/B;") == idx

    def test_method_ref_roundtrip(self):
        dex = DexFile()
        idx = dex.intern_method("Lcom/a/B;", "run", "V", ("I", "J"))
        ref = dex.method_ref(idx)
        assert ref.class_desc == "Lcom/a/B;"
        assert ref.name == "run"
        assert ref.param_descs == ("I", "J")
        assert ref.signature == "Lcom/a/B;->run(IJ)V"

    def test_field_ref_roundtrip(self):
        dex = DexFile()
        idx = dex.intern_field("Lcom/a/B;", "flag", "Z")
        assert dex.field_ref(idx).signature == "Lcom/a/B;->flag:Z"

    def test_proto_sharing(self):
        dex = DexFile()
        a = dex.intern_method("Lcom/a/A;", "x", "I", ("I",))
        b = dex.intern_method("Lcom/a/B;", "y", "I", ("I",))
        assert dex.method_ids[a].proto_idx == dex.method_ids[b].proto_idx

    def test_own_pools_leave_the_source_alone(self):
        dex = DexFile()
        run = dex.intern_method("Lcom/a/B;", "run", "V")
        pools = (list(dex.strings), list(dex.type_ids), list(dex.protos),
                 list(dex.method_ids), list(dex.field_ids))
        view = dex.with_own_pools()
        assert view.method_ref(run) == dex.method_ref(run)
        assert view.intern_method("Lcom/a/B;", "run", "V") == run
        added = view.intern_method("Lcom/a/C;", "go", "I", ("J",))
        view.intern_field("Lcom/a/C;", "flag", "Z")
        view.intern_string("only in the view")
        assert view.method_ref(added).signature == "Lcom/a/C;->go(J)I"
        assert (dex.strings, dex.type_ids, dex.protos, dex.method_ids,
                dex.field_ids) == pools
        assert dex.intern_method("Lcom/a/D;", "x", "V") == added
        assert view.class_defs == dex.class_defs


class TestSignatureParsing:
    def test_split_type_list(self):
        assert split_type_list("ILjava/lang/String;[B[[Lcom/x/Y;D") == (
            "I", "Ljava/lang/String;", "[B", "[[Lcom/x/Y;", "D"
        )

    def test_split_empty(self):
        assert split_type_list("") == ()

    def test_split_bad_descriptor(self):
        with pytest.raises(AssemblyError):
            split_type_list("Q")

    def test_dangling_array(self):
        with pytest.raises(AssemblyError):
            split_type_list("[")

    def test_parse_method_signature(self):
        ref = parse_method_signature("Lcom/a/B;->go(ILjava/lang/String;)[B")
        assert ref == MethodRef("Lcom/a/B;", "go", ("I", "Ljava/lang/String;"), "[B")

    def test_parse_method_malformed(self):
        with pytest.raises(AssemblyError):
            parse_method_signature("not a signature")

    def test_parse_field_signature(self):
        ref = parse_field_signature("Lcom/a/B;->count:I")
        assert (ref.class_desc, ref.name, ref.type_desc) == ("Lcom/a/B;", "count", "I")

    def test_shorty(self):
        ref = parse_method_signature("La;->m(J[BLjava/lang/Object;)V")
        assert ref.shorty == "VJLL"

    def test_arg_width_counts_wide(self):
        ref = parse_method_signature("La;->m(JID)V")
        assert method_arg_width(ref, is_static=True) == 5
        assert method_arg_width(ref, is_static=False) == 6


class TestCanonicalize:
    def _build(self) -> DexFile:
        builder = DexBuilder()
        cls = builder.add_class("Lzz/Last;")
        mb = cls.method("zrun", "V", (), locals_count=2)
        mb.const_string(0, "zeta")
        mb.const_string(1, "alpha")
        mb.invoke("static", "Laa/First;->helper(Ljava/lang/String;)V", 0)
        mb.ret_void()
        mb.build()
        cls2 = builder.add_class("Laa/First;")
        mb2 = cls2.method("helper", "V", ("Ljava/lang/String;",),
                          access=0x9, locals_count=1)  # public static
        mb2.ret_void()
        mb2.build()
        return builder.build()

    def test_pools_sorted_after_canonicalize(self):
        dex = self._build()
        dex.canonicalize()
        assert dex.strings == sorted(dex.strings)
        assert dex.type_ids == sorted(dex.type_ids)

    def test_instruction_references_remap(self):
        dex = self._build()
        dex.canonicalize()
        cls = dex.find_class("Lzz/Last;")
        method = cls.all_methods()[0]
        strings = []
        invoked = []
        for _pc, ins in method.code.instructions():
            if ins.name == "const-string":
                strings.append(dex.string(ins.pool_index))
            if ins.opcode.is_invoke:
                invoked.append(dex.method_ref(ins.pool_index).signature)
        assert strings == ["zeta", "alpha"]
        assert invoked == ["Laa/First;->helper(Ljava/lang/String;)V"]

    def test_superclass_ordering(self):
        builder = DexBuilder()
        builder.add_class("La/Child;", superclass="Lz/Parent;")
        builder.add_class("Lz/Parent;")
        dex = builder.build()
        dex.canonicalize()
        names = dex.class_descriptors()
        assert names.index("Lz/Parent;") < names.index("La/Child;")

    def test_canonicalize_idempotent(self):
        dex = self._build()
        dex.canonicalize()
        first = [list(dex.strings), list(dex.type_ids)]
        dex.canonicalize()
        assert [list(dex.strings), list(dex.type_ids)] == first

    def test_total_instruction_count(self):
        dex = self._build()
        assert dex.total_instruction_count() == 5
