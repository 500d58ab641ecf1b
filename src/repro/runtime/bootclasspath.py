"""The boot classpath: every framework class spec, built once per process.

ART builds its boot classpath once, in Zygote, and forks every app
process from it.  Here the intrinsic, reflection and framework specs
are built once, at import, into :data:`BOOT_CLASSES`, a read-only tuple
of frozen :class:`~repro.runtime.class_linker.NativeClassSpec` objects:
their method lists are tuples, and each method's ``MethodRef`` and
access flags are already made.  Every
:class:`~repro.runtime.art.AndroidRuntime` registers them by
reference, and forked replay workers inherit the tuple with the rest
of the process.

The specs hold no per-runtime state.  Every impl reaches its runtime
through ``ctx.runtime``, none closes over a list, dict or set, and a
static-field factory runs per runtime when its class links, so
``Build.MODEL`` follows each runtime's device.  What a runtime links
from a spec (``RuntimeClass``, ``RuntimeMethod``, statics) is its own.
"""

from __future__ import annotations

from repro.runtime import android_api, intrinsics, reflection
from repro.runtime.class_linker import NativeClassSpec

#: Every intrinsic, reflection and framework class spec, in
#: registration order (a later spec for the same descriptor wins).
BOOT_CLASSES: tuple[NativeClassSpec, ...] = tuple(
    spec.freeze()
    for spec in (
        *intrinsics.all_specs(),
        *reflection.all_specs(),
        *android_api.all_specs(),
    )
)


def register_boot_classes(runtime) -> None:
    """Register the shared boot classpath with ``runtime``'s linker."""
    linker = runtime.class_linker
    for spec in BOOT_CLASSES:
        linker.register_boot_class(spec)
