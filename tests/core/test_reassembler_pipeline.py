"""Reassembler and end-to-end pipeline tests."""


from repro.analysis import horndroid
from repro.core import INSTRUMENT_CLASS, reveal_apk
from repro.dex import assemble, assert_valid
from repro.runtime import AndroidRuntime, Apk, AppDriver

from tests.conftest import build_simple_apk


class TestBasicReassembly:
    def test_revealed_dex_is_valid(self):
        result = reveal_apk(build_simple_apk("r.valid"))
        assert_valid(result.reassembled_dex)

    def test_semantics_preserved_on_reexecution(self):
        result = reveal_apk(build_simple_apk("r.sem"))
        runtime = AndroidRuntime()
        driver = AppDriver(runtime, result.revealed_apk)
        report = driver.launch()
        assert report.launched, report.crash_reason
        assert driver.activity.fields[("Lcom/fix/Simple;", "total")] == 285

    def test_static_values_carried(self):
        text = """
.class public Lr/Sv;
.super Landroid/app/Activity;
.field public static final TAG:Ljava/lang/String; = "carried"
.field public static COUNT:I = 7

.method public onCreate(Landroid/os/Bundle;)V
    .registers 3
    sget-object v0, Lr/Sv;->TAG:Ljava/lang/String;
    sget v1, Lr/Sv;->COUNT:I
    return-void
.end method
"""
        apk = Apk("r.sv", "Lr/Sv;", [assemble(text)])
        dex = reveal_apk(apk).reassembled_dex
        cls = dex.find_class("Lr/Sv;")
        values = {}
        for encoded, value in zip(cls.static_fields, cls.static_values):
            values[dex.field_ref(encoded.field_idx).name] = value
        assert dex.string(values["TAG"].value) == "carried"
        assert values["COUNT"].value == 7

    def test_unexecuted_method_becomes_stub(self):
        text = """
.class public Lr/Stub;
.super Landroid/app/Activity;
.method public onCreate(Landroid/os/Bundle;)V
    .registers 2
    return-void
.end method

.method public neverCalled()I
    .registers 4
    const/16 v0, 1000
    const/16 v1, 2000
    add-int v0, v0, v1
    return v0
.end method
"""
        apk = Apk("r.stub", "Lr/Stub;", [assemble(text)])
        dex = reveal_apk(apk).reassembled_dex
        cls = dex.find_class("Lr/Stub;")
        never = next(
            m for m in cls.all_methods()
            if dex.method_ref(m.method_idx).name == "neverCalled"
        )
        # Dead code was replaced by a two-instruction default-return stub.
        assert len(never.code.instructions()) <= 2

    def test_unexecuted_branch_side_dead_ends(self):
        text = """
.class public Lr/Half;
.super Landroid/app/Activity;
.method public onCreate(Landroid/os/Bundle;)V
    .registers 4
    const/4 v0, 1
    if-eqz v0, :never
    return-void
    :never
    const/16 v1, 999
    return-void
.end method
"""
        apk = Apk("r.half", "Lr/Half;", [assemble(text)])
        dex = reveal_apk(apk).reassembled_dex
        cls = dex.find_class("Lr/Half;")
        method = cls.all_methods()[0]
        literals = [
            ins.operands[-1]
            for _pc, ins in method.code.instructions()
            if ins.name == "const/16"
        ]
        assert 999 not in literals  # never-executed side is gone

    def test_try_blocks_reattached(self):
        text = """
.class public Lr/Try;
.super Landroid/app/Activity;
.method public onCreate(Landroid/os/Bundle;)V
    .registers 4
    const/4 v0, 0
    :s
    const/16 v1, 50
    div-int v1, v1, v0
    :e
    return-void
    :h
    return-void
    .catch Ljava/lang/ArithmeticException; {:s .. :e} :h
.end method
"""
        apk = Apk("r.try", "Lr/Try;", [assemble(text)])
        result = reveal_apk(apk)
        cls = result.reassembled_dex.find_class("Lr/Try;")
        method = cls.all_methods()[0]
        assert len(method.code.tries) == 1
        # Re-execution still catches.
        runtime = AndroidRuntime()
        report = AppDriver(runtime, result.revealed_apk).launch()
        assert report.launched and not report.crashed

    def test_switch_payloads_rematerialized(self):
        text = """
.class public Lr/Sw;
.super Landroid/app/Activity;
.field public static out:I

.method public onCreate(Landroid/os/Bundle;)V
    .registers 4
    const/4 v0, 1
    packed-switch v0, :t
    const/4 v1, 0
    goto :store
    :zero
    const/16 v1, 10
    goto :store
    :one
    const/16 v1, 20
    :store
    sput v1, Lr/Sw;->out:I
    return-void
    :t
    .packed-switch 0
        :zero
        :one
    .end packed-switch
.end method
"""
        apk = Apk("r.sw", "Lr/Sw;", [assemble(text)])
        result = reveal_apk(apk)
        runtime = AndroidRuntime()
        AppDriver(runtime, result.revealed_apk).launch()
        assert runtime.class_linker.lookup("Lr/Sw;").statics["out"] == 20


class TestSelfModifyingReassembly:
    def _selfmod_result(self):
        from repro.benchsuite import sample_by_name

        sample = sample_by_name("SelfMod0")
        return reveal_apk(sample.build_apk())

    def test_both_versions_present(self):
        dex = self._selfmod_result().reassembled_dex
        cls = dex.find_class("Lde/bench/selfmod/SelfMod0;")
        leak = next(
            m for m in cls.all_methods()
            if dex.method_ref(m.method_idx).name == "leak"
        )
        invoked = {
            dex.method_ref(ins.pool_index).name
            for _pc, ins in leak.code.instructions()
            if ins.opcode.is_invoke
        }
        assert {"normal", "sink0"} <= invoked

    def test_instrument_class_emitted_with_clinit(self):
        dex = self._selfmod_result().reassembled_dex
        cls = dex.find_class(INSTRUMENT_CLASS)
        assert cls is not None
        assert cls.static_fields, "divergence selector fields missing"
        names = [dex.method_ref(m.method_idx).name for m in cls.all_methods()]
        assert "<clinit>" in names

    def test_selector_reads_instrument_field(self):
        dex = self._selfmod_result().reassembled_dex
        cls = dex.find_class("Lde/bench/selfmod/SelfMod0;")
        leak = next(
            m for m in cls.all_methods()
            if dex.method_ref(m.method_idx).name == "leak"
        )
        sgets = [
            dex.field_ref(ins.pool_index).class_desc
            for _pc, ins in leak.code.instructions()
            if ins.name == "sget-boolean"
        ]
        assert INSTRUMENT_CLASS in sgets

    def test_static_tool_sees_hidden_flow(self):
        revealed = self._selfmod_result().revealed_apk
        assert horndroid().analyze(revealed).detected

    def test_two_layer_divergence_reassembles(self):
        from repro.benchsuite import sample_by_name

        sample = sample_by_name("SelfMod3")
        result = reveal_apk(sample.build_apk())
        assert_valid(result.reassembled_dex)
        dex = result.reassembled_dex
        cls = dex.find_class("Lde/bench/selfmod/SelfMod3;")
        leak = next(
            m for m in cls.all_methods()
            if dex.method_ref(m.method_idx).name == "leak"
        )
        invoked = {
            dex.method_ref(ins.pool_index).name
            for _pc, ins in leak.code.instructions()
            if ins.opcode.is_invoke
        }
        assert {"normal", "decoy", "sink3"} <= invoked

    def test_variant_dispatch_for_cross_run_modification(self):
        from repro.benchsuite import sample_by_name

        sample = sample_by_name("SelfMod2")
        result = reveal_apk(sample.build_apk())
        dex = result.reassembled_dex
        cls = dex.find_class("Lde/bench/selfmod/SelfMod2;")
        guarded = next(
            m for m in cls.all_methods()
            if dex.method_ref(m.method_idx).name == "guarded"
        )
        names = [ins.name for _pc, ins in guarded.code.instructions()]
        # Both the if-eqz and the flipped if-nez variants exist.
        assert "if-eqz" in names and "if-nez" in names


class TestReflectionRewrite:
    def test_reflective_call_becomes_bridge(self):
        from repro.benchsuite import sample_by_name

        sample = sample_by_name("ReflectAdv1")
        result = reveal_apk(sample.build_apk())
        dex = result.reassembled_dex
        cls = dex.find_class("Lde/bench/reflect/ReflectAdv1;")
        on_create = next(
            m for m in cls.all_methods()
            if dex.method_ref(m.method_idx).name == "onCreate"
        )
        invoked = [
            dex.method_ref(ins.pool_index)
            for _pc, ins in on_create.code.instructions()
            if ins.opcode.is_invoke
        ]
        assert not any(
            r.class_desc == "Ljava/lang/reflect/Method;" and r.name == "invoke"
            for r in invoked
        ), "Method.invoke survived the rewrite"
        assert any(r.class_desc == INSTRUMENT_CLASS for r in invoked)

    def test_bridge_app_reexecutes(self):
        from repro.benchsuite import sample_by_name

        sample = sample_by_name("ReflectAdv0")
        result = reveal_apk(sample.build_apk())
        runtime = AndroidRuntime()
        report = AppDriver(runtime, result.revealed_apk).launch()
        assert report.launched, report.crash_reason
        assert runtime.observed_leaks(), "bridge dropped the flow"


class TestDynamicLoadingMerge:
    def test_loaded_classes_merged_into_one_dex(self):
        from repro.benchsuite import sample_by_name

        sample = sample_by_name("DynLoad0")
        result = reveal_apk(sample.build_apk())
        descriptors = result.reassembled_dex.class_descriptors()
        assert "Lde/bench/dynload/DynLoad0;" in descriptors
        assert "Lde/bench/dynload/Plugin0;" in descriptors
        assert len(result.revealed_apk.dex_files) == 1
