"""The shared boot classpath and what each runtime links from it.

Every :class:`AndroidRuntime` in a process registers the same frozen
framework specs (``bootclasspath.BOOT_CLASSES``), built once at import.
These tests hold the invariants that sharing rests on:

* runtimes stay isolated: statics are linked per runtime, so each one
  reads its own device's ``Build`` fields and never another drive's
  writes;
* the shared specs are read-only: driving apps leaves them equal to a
  freshly built set, and no impl closes over mutable state;
* ``RuntimeMethod.loaded_code`` is the DEX body the method was linked
  from, never written; only the live ``code`` is patched;
* the method flags fixed at link time equal the access-flag arithmetic.
"""

import types

import pytest

from repro.benchsuite import build_market_app, droidbench_samples, sample_by_name
from repro.benchsuite.market_apps import MARKET_APP_SPECS
from repro.dex import assemble
from repro.dex.constants import AccessFlags
from repro.errors import BudgetExceeded, VmCrash
from repro.runtime import (
    EMULATOR,
    NEXUS_5X,
    AndroidRuntime,
    Apk,
    AppDriver,
    RuntimeListener,
    VmThrow,
)
from repro.runtime import android_api, intrinsics, reflection
from repro.runtime.bootclasspath import BOOT_CLASSES

_APP = "Lt/boot/Iso;"


def _isolation_apk() -> Apk:
    """An activity that prints the boot statics it reads, then
    overwrites them."""
    text = f"""
.class public {_APP}
.super Landroid/app/Activity;

.method public onCreate(Landroid/os/Bundle;)V
    .registers 4
    sget-object v0, Ljava/lang/System;->out:Ljava/io/PrintStream;
    sget-object v1, Landroid/os/Build;->MODEL:Ljava/lang/String;
    invoke-virtual {{v0, v1}}, Ljava/io/PrintStream;->println(Ljava/lang/String;)V
    sget v2, Ljava/lang/Integer;->MAX_VALUE:I
    invoke-virtual {{v0, v2}}, Ljava/io/PrintStream;->println(I)V
    const-string v1, "tampered"
    sput-object v1, Landroid/os/Build;->MODEL:Ljava/lang/String;
    sput-object v1, Ljava/lang/System;->out:Ljava/io/PrintStream;
    const/4 v2, 7
    sput v2, Ljava/lang/Integer;->MAX_VALUE:I
    return-void
.end method
"""
    return Apk("t.boot.iso", _APP, [assemble(text)])


def _statics(runtime: AndroidRuntime, descriptor: str) -> dict:
    return runtime.class_linker.lookup(descriptor).statics


def _drive(runtime: AndroidRuntime, apk: Apk) -> None:
    try:
        AppDriver(runtime, apk).run_standard_session()
    except (BudgetExceeded, VmCrash, VmThrow):
        pass


class TestIsolation:
    """Statics are per runtime; the specs they come from are shared."""

    def test_each_runtime_reads_its_own_device_and_statics(self):
        apk = _isolation_apk()
        first = AndroidRuntime(EMULATOR)
        AppDriver(first, apk).launch()
        second = AndroidRuntime(NEXUS_5X)
        AppDriver(second, apk).launch()

        assert first.stdout == [EMULATOR.model, str(2**31 - 1)]
        assert second.stdout == [NEXUS_5X.model, str(2**31 - 1)]
        for runtime in (first, second):
            assert _statics(runtime, "Landroid/os/Build;")["MODEL"] \
                .value == "tampered"
            assert _statics(runtime, "Ljava/lang/Integer;")["MAX_VALUE"] == 7
            assert _statics(runtime, "Ljava/lang/System;")["out"] \
                .value == "tampered"

        third = AndroidRuntime(EMULATOR)
        build = _statics(third, "Landroid/os/Build;")
        assert build["MODEL"].value == EMULATOR.model
        assert build["BRAND"].value == EMULATOR.brand
        assert _statics(third, "Ljava/lang/Integer;")["MAX_VALUE"] == 2**31 - 1
        out = _statics(third, "Ljava/lang/System;")["out"]
        assert out.klass is third.class_linker.lookup("Ljava/io/PrintStream;")

    def test_linked_boot_classes_are_per_runtime(self):
        first, second = AndroidRuntime(), AndroidRuntime()
        for spec in BOOT_CLASSES:
            a = first.class_linker.lookup(spec.descriptor)
            b = second.class_linker.lookup(spec.descriptor)
            assert a is not b
            assert a.statics is not b.statics
            for key, method in a.methods.items():
                assert b.methods[key] is not method
                assert b.methods[key].declaring_class is b


# -- read-only specs ---------------------------------------------------------


def _fresh_specs() -> list:
    return [*intrinsics.all_specs(), *reflection.all_specs(),
            *android_api.all_specs()]


def _shape(spec) -> tuple:
    """A spec as the linker reads it; impls compare by code object."""
    return (
        spec.descriptor,
        spec.superclass,
        tuple(spec.interfaces),
        spec.access,
        tuple((m.ref, m.access, m.impl.__code__) for m in spec.methods),
        tuple(spec.instance_fields),
        tuple(spec.static_fields),
    )


def _captured(fn, seen=None):
    """Everything ``fn`` closes over or defaults to, following the
    functions it captures."""
    seen = set() if seen is None else seen
    if id(fn) in seen:
        return
    seen.add(id(fn))
    values = [cell.cell_contents for cell in fn.__closure__ or ()]
    values += list(fn.__defaults__ or ())
    values += list((fn.__kwdefaults__ or {}).values())
    for value in values:
        yield value
        if isinstance(value, types.FunctionType):
            yield from _captured(value, seen)


def _impls():
    for spec in BOOT_CLASSES:
        for method in spec.methods:
            yield method.impl
        for _type_desc, factory in spec.static_fields.values():
            yield factory


class TestReadOnlySpecs:
    """Driving apps leaves the shared specs as they were built."""

    def test_specs_are_frozen_tuples(self):
        assert isinstance(BOOT_CLASSES, tuple)
        assert len(BOOT_CLASSES) == len(_fresh_specs())
        for spec in BOOT_CLASSES:
            assert isinstance(spec.methods, tuple)
            assert isinstance(spec.instance_fields, tuple)
            with pytest.raises(TypeError):
                spec.static_fields["X"] = ("I", lambda runtime: 0)

    def test_no_impl_closes_over_mutable_state(self):
        for impl in _impls():
            for value in _captured(impl):
                assert not isinstance(value, (list, dict, set)), impl

    def test_driving_apps_leaves_specs_equal_to_fresh_ones(self):
        for sample in droidbench_samples():
            runtime = AndroidRuntime(sample.device, max_steps=200_000)
            _drive(runtime, sample.build_apk())
        packed = build_market_app(MARKET_APP_SPECS[0][0]).packed_apk
        _drive(AndroidRuntime(max_steps=2_000_000), packed)

        assert [_shape(s) for s in BOOT_CLASSES] == \
            [_shape(s) for s in _fresh_specs()]


# -- loaded_code ---------------------------------------------------------------


def _dex_bodies(apk: Apk) -> dict:
    return {
        ref.signature: list(method.code.insns)
        for dex in apk.dex_files
        for _cls, method, ref in dex.iter_methods()
        if method.code is not None
    }


class _PatchedLeakProbe(RuntimeListener):
    """Snapshots ``leak()`` while SelfMod0 has it patched: ``sink0`` is
    only ever entered through the swapped invoke."""

    def __init__(self) -> None:
        self.seen = []

    def on_method_enter(self, frame) -> None:
        if frame.method.ref.name != "sink0":
            return
        leak = frame.method.declaring_class.find_method("leak", (), "V")
        self.seen.append((list(leak.loaded_code.insns),
                          list(leak.code.insns)))


class TestLoadedCode:
    def test_loaded_code_is_the_linked_body_and_never_patched(self):
        sample = sample_by_name("SelfMod0")
        apk = sample.build_apk()
        before = _dex_bodies(apk)
        runtime = AndroidRuntime(sample.device)
        probe = _PatchedLeakProbe()
        runtime.add_listener(probe)
        AppDriver(runtime, apk).run_standard_session()

        signature = "Lde/bench/selfmod/SelfMod0;->leak()V"
        assert probe.seen, "SelfMod0 never ran its patched body"
        for loaded, live in probe.seen:
            assert loaded == before[signature]
            assert live != loaded
        assert _dex_bodies(apk) == before
        for klass in runtime.class_linker.loaded_app_classes():
            for method in klass.methods.values():
                if method.code is not None:
                    assert method.code is not method.loaded_code
                    assert method.code.insns is not method.loaded_code.insns


# -- flags -----------------------------------------------------------------------


def _expected_flags(method) -> tuple:
    flags = method.access_flags
    return (
        bool(flags & AccessFlags.STATIC),
        bool(flags & AccessFlags.ABSTRACT),
        bool(flags & AccessFlags.NATIVE)
        or (method.code is None and method.native_impl is not None),
    )


def _flags(method) -> tuple:
    return (method.is_static, method.is_abstract, method.is_native)


class TestLinkTimeFlags:
    def test_every_droidbench_and_boot_method(self):
        checked = 0
        for sample in droidbench_samples():
            runtime = AndroidRuntime(sample.device)
            runtime.install_apk(sample.build_apk())
            for dex in runtime.class_linker.app_dex_files:
                for descriptor in dex.class_descriptors():
                    runtime.class_linker.lookup(descriptor)
            for spec in BOOT_CLASSES:
                runtime.class_linker.lookup(spec.descriptor)
            for klass in runtime.class_linker.loaded.values():
                for method in klass.methods.values():
                    assert _flags(method) == _expected_flags(method), method
                    checked += 1
        assert checked > 10_000

    def test_native_impl_set_after_linking(self):
        text = """
.class public Lt/boot/Late;
.super Ljava/lang/Object;

.method public abstract later()I
.end method
"""
        runtime = AndroidRuntime()
        runtime.install_apk(Apk("t.boot.late", "Lt/boot/Late;",
                                [assemble(text)]))
        method = runtime.class_linker.lookup("Lt/boot/Late;") \
            .find_method("later", (), "I")
        assert method.code is None
        assert _flags(method) == (False, True, False)
        method.native_impl = lambda ctx, this: 5
        assert _flags(method) == _expected_flags(method) == (False, True, True)
