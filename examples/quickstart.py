"""Quickstart: assemble an app, run DexLego, analyze before and after.

The app hides an IMEI -> SMS flow behind *runtime self-modification*
(the paper's Code 1): a native method rewrites the ``normal(...)`` call
site into ``sink(...)`` between loop iterations, so no static snapshot
ever shows source and sink together.

Run:  python examples/quickstart.py
"""

from repro import (
    AndroidRuntime,
    Apk,
    AppDriver,
    assemble,
    flowdroid,
    register_native_library,
    reveal_apk,
)
from repro.dex.instructions import Instruction

SMALI = """
.class public Lcom/quickstart/Main;
.super Landroid/app/Activity;

.method public onCreate(Landroid/os/Bundle;)V
    .registers 3
    invoke-virtual {p0}, Lcom/quickstart/Main;->leak()V
    return-void
.end method

.method public leak()V
    .registers 4
    invoke-virtual {p0}, Lcom/quickstart/Main;->readImei()Ljava/lang/String;
    move-result-object v0
    const/4 v1, 0
    :loop
    const/4 v2, 2
    if-ge v1, v2, :done
    invoke-virtual {p0, v0}, Lcom/quickstart/Main;->normal(Ljava/lang/String;)V
    invoke-virtual {p0, v1}, Lcom/quickstart/Main;->tamper(I)V
    add-int/lit8 v1, v1, 1
    goto :loop
    :done
    return-void
.end method

.method public readImei()Ljava/lang/String;
    .registers 3
    const-string v0, "phone"
    invoke-virtual {p0, v0}, Lcom/quickstart/Main;->getSystemService(Ljava/lang/String;)Ljava/lang/Object;
    move-result-object v0
    check-cast v0, Landroid/telephony/TelephonyManager;
    invoke-virtual {v0}, Landroid/telephony/TelephonyManager;->getDeviceId()Ljava/lang/String;
    move-result-object v0
    return-object v0
.end method

.method public normal(Ljava/lang/String;)V
    .registers 2
    return-void
.end method

.method public sink(Ljava/lang/String;)V
    .registers 3
    const-string v0, "EXFIL"
    invoke-static {v0, p1}, Landroid/util/Log;->i(Ljava/lang/String;Ljava/lang/String;)I
    return-void
.end method

.method public native tamper(I)V
.end method
"""


def tamper(ctx, this, i):
    """The JNI-analogue bytecode rewriter (paper Code 1)."""
    host = "Lcom/quickstart/Main;"
    leak = f"{host}->leak()V"
    old = "normal" if i == 0 else "sink"
    new = f"{host}->sink(Ljava/lang/String;)V" if i == 0 else (
        f"{host}->normal(Ljava/lang/String;)V"
    )
    pc = ctx.find_invoke_pc(leak, old)
    units = ctx.method_code_units(leak)
    call = Instruction.decode_at(units, pc)
    patched = Instruction.make(
        "invoke-virtual", ctx.method_pool_index(host, new), *call.invoke_registers
    ).encode()
    ctx.patch_code(leak, pc, patched)


def main() -> None:
    register_native_library(
        "libquickstart", {"Lcom/quickstart/Main;->tamper(I)V": tamper}
    )
    apk = Apk("com.quickstart", "Lcom/quickstart/Main;", [assemble(SMALI)],
              native_libraries=["libquickstart"])

    tool = flowdroid()
    print("=== 1. Static analysis on the original APK ===")
    flows = tool.analyze(apk).flows
    print(f"FlowDroid finds {len(flows)} flow(s)  <- the leak is invisible\n")

    print("=== 2. Execute: the leak is real ===")
    runtime = AndroidRuntime()
    AppDriver(runtime, apk).run_standard_session()
    for event in runtime.observed_leaks():
        print(f"runtime leak: {sorted(event.provenance)} -> "
              f"{event.sink_signature.split(';->')[1].split('(')[0]}")
    print()

    print("=== 3. DexLego: collect -> reassemble -> verify -> repack ===")
    result = reveal_apk(apk)
    print(f"collector stats: {result.collector_stats}")
    print("stage timings:  " + "  ".join(
        f"{stage}={seconds * 1000:.1f}ms"
        for stage, seconds in result.stage_timings.items()
    ) + "\n")
    print("reassembled leak() method:")
    dex = result.reassembled_dex
    cls = dex.find_class("Lcom/quickstart/Main;")
    from repro.dex.disassembler import disassemble_code

    leak = next(m for m in cls.all_methods()
                if dex.method_ref(m.method_idx).name == "leak")
    for line in disassemble_code(dex, leak.code):
        print("   ", line)
    print()

    print("=== 4. Static analysis on the revealed APK ===")
    flows = tool.analyze(result.revealed_apk).flows
    for flow in flows:
        print(f"FlowDroid now finds: {flow.brief()}")
    assert flows, "expected the hidden flow to be visible"


if __name__ == "__main__":
    main()
