"""Class linker: loads, links and initializes classes.

Mirrors ART's flow from §III-A of the paper: the DEX file is registered
with the linker, classes are linked on first use (collection point for
class metadata), and initialization runs ``<clinit>`` plus static-value
assignment (collection point for static values).  Dynamically loaded DEX
files (``DexClassLoader`` analogue) register through the same path, so
"the execution of the code in the dynamic loaded DEX file also follows
the same flow".
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable

from repro.dex.constants import NO_INDEX, AccessFlags, EncodedValueType
from repro.dex.structures import ClassDef, DexFile, MethodRef
from repro.errors import ClassLinkError
from repro.runtime.klass import RuntimeClass, RuntimeField, RuntimeMethod
from repro.runtime.values import VmString

_PUBLIC_NATIVE = int(AccessFlags.PUBLIC | AccessFlags.NATIVE)
_STATIC = int(AccessFlags.STATIC)
_PUBLIC_STATIC = int(AccessFlags.PUBLIC | AccessFlags.STATIC)


@dataclass(frozen=True)
class NativeMethodSpec:
    """Declaration of one framework-implemented method.

    ``ref`` and ``access`` (PUBLIC | NATIVE, and STATIC for a static
    method) are made once, when the spec is built, so every runtime
    links the method from the same table.
    """

    ref: MethodRef
    access: int
    impl: Callable


@dataclass
class NativeClassSpec:
    """Declaration of one framework (boot classpath) class.

    Built with :meth:`method` and ``static_fields``, then made read-only
    with :meth:`freeze`: the boot classpath shares one frozen spec per
    class among every runtime in the process (``bootclasspath``).
    """

    descriptor: str
    superclass: str | None = "Ljava/lang/Object;"
    interfaces: tuple[str, ...] = ()
    methods: Sequence[NativeMethodSpec] = field(default_factory=list)
    instance_fields: Sequence[tuple[str, str]] = field(default_factory=list)
    # name -> (type_desc, factory(runtime) -> value); a factory runs per
    # runtime when the class links, so a value may follow the device.
    static_fields: Mapping[str, tuple[str, Callable]] = field(
        default_factory=dict
    )
    access: int = int(AccessFlags.PUBLIC)

    def method(
        self,
        name: str,
        param_descs: tuple[str, ...],
        return_desc: str,
        impl: Callable,
        static: bool = False,
    ) -> "NativeClassSpec":
        self.methods.append(
            NativeMethodSpec(
                MethodRef(self.descriptor, name, tuple(param_descs),
                          return_desc),
                _PUBLIC_NATIVE | (_STATIC if static else 0),
                impl,
            )
        )
        return self

    def freeze(self) -> "NativeClassSpec":
        """Turn the member lists into tuples and the static-field map
        into a read-only view; returns ``self``."""
        self.methods = tuple(self.methods)
        self.instance_fields = tuple(self.instance_fields)
        self.static_fields = MappingProxyType(dict(self.static_fields))
        return self


class ClassLinker:
    """Loads classes from registered DEX files and boot-class specs."""

    def __init__(self, runtime) -> None:
        self.runtime = runtime
        self.loaded: dict[str, RuntimeClass] = {}
        # descriptor -> (DexFile, ClassDef); later registrations shadow
        # earlier ones only if the descriptor is not yet loaded.
        self._pending: dict[str, tuple[DexFile, ClassDef]] = {}
        self._boot_specs: dict[str, NativeClassSpec] = {}
        self.app_dex_files: list[DexFile] = []

    # -- registration ---------------------------------------------------------

    def register_boot_class(self, spec: NativeClassSpec) -> None:
        self._boot_specs[spec.descriptor] = spec

    def register_dex(self, dex: DexFile) -> list[str]:
        """Register an application DEX file; returns its class descriptors."""
        self.app_dex_files.append(dex)
        descriptors = []
        for class_def in dex.class_defs:
            descriptor = dex.class_descriptor(class_def)
            descriptors.append(descriptor)
            if descriptor not in self._pending and descriptor not in self.loaded:
                self._pending[descriptor] = (dex, class_def)
        return descriptors

    # -- lookup / linking ---------------------------------------------------------

    def lookup(self, descriptor: str) -> RuntimeClass:
        """Return the linked class, loading it on first use."""
        klass = self.loaded.get(descriptor)
        if klass is not None:
            return klass
        if descriptor.startswith("["):
            return self._load_array_class(descriptor)
        pending = self._pending.get(descriptor)
        if pending is not None:
            return self._load_dex_class(*pending)
        spec = self._boot_specs.get(descriptor)
        if spec is not None:
            return self._load_boot_class(spec)
        raise ClassLinkError(f"class not found: {descriptor}")

    def is_known(self, descriptor: str) -> bool:
        return (
            descriptor in self.loaded
            or descriptor in self._pending
            or descriptor in self._boot_specs
            or descriptor.startswith("[")
        )

    def loaded_app_classes(self) -> list[RuntimeClass]:
        return [k for k in self.loaded.values() if k.source_dex is not None]

    def _load_array_class(self, descriptor: str) -> RuntimeClass:
        klass = RuntimeClass(
            descriptor, superclass=self.lookup("Ljava/lang/Object;")
        )
        self.loaded[descriptor] = klass
        return klass

    def _load_boot_class(self, spec: NativeClassSpec) -> RuntimeClass:
        superclass = (
            self.lookup(spec.superclass) if spec.superclass is not None else None
        )
        interfaces = tuple(self.lookup(i) for i in spec.interfaces)
        klass = RuntimeClass(
            spec.descriptor, superclass, interfaces, access_flags=spec.access
        )
        self.loaded[spec.descriptor] = klass
        for method_spec in spec.methods:
            klass.add_method(
                RuntimeMethod(klass, method_spec.ref, method_spec.access,
                              native_impl=method_spec.impl)
            )
        for name, type_desc in spec.instance_fields:
            klass.add_field(RuntimeField(spec.descriptor, name, type_desc))
        for name, (type_desc, factory) in spec.static_fields.items():
            klass.add_field(
                RuntimeField(spec.descriptor, name, type_desc, _PUBLIC_STATIC)
            )
            klass.statics[name] = factory(self.runtime)
        klass.initialized = True  # boot classes need no <clinit>
        return klass

    def _load_dex_class(self, dex: DexFile, class_def: ClassDef) -> RuntimeClass:
        descriptor = dex.class_descriptor(class_def)
        superclass = None
        if class_def.superclass_idx != NO_INDEX:
            superclass = self.lookup(dex.type_descriptor(class_def.superclass_idx))
        interfaces = tuple(
            self.lookup(dex.type_descriptor(i)) for i in class_def.interfaces
        )
        klass = RuntimeClass(
            descriptor,
            superclass,
            interfaces,
            access_flags=class_def.access_flags,
            source_dex=dex,
        )
        self.loaded[descriptor] = klass
        self._pending.pop(descriptor, None)

        for encoded in class_def.all_fields():
            ref = dex.field_ref(encoded.field_idx)
            klass.add_field(
                RuntimeField(descriptor, ref.name, ref.type_desc, encoded.access_flags)
            )
        for encoded in class_def.all_methods():
            ref = dex.method_ref(encoded.method_idx)
            method = RuntimeMethod(klass, ref, encoded.access_flags, encoded.code)
            klass.add_method(method)
        # Static values are assigned during initialization, but record the
        # declared defaults now for the collector's benefit.
        klass._static_value_defaults = self._decode_static_values(dex, class_def)
        for listener in self.runtime.fanout.on_class_loaded:
            listener.on_class_loaded(klass)
        return klass

    def _decode_static_values(
        self, dex: DexFile, class_def: ClassDef
    ) -> dict[str, object]:
        defaults: dict[str, object] = {}
        for encoded_field, value in zip(
            class_def.static_fields, class_def.static_values
        ):
            name = dex.field_ref(encoded_field.field_idx).name
            if value.kind is EncodedValueType.STRING:
                defaults[name] = VmString(dex.string(value.value))
            elif value.kind is EncodedValueType.NULL:
                defaults[name] = None
            elif value.kind is EncodedValueType.BOOLEAN:
                defaults[name] = 1 if value.value else 0
            elif value.kind in (
                EncodedValueType.FLOAT,
                EncodedValueType.DOUBLE,
            ):
                defaults[name] = float(value.value)
            else:
                defaults[name] = int(value.value)
        return defaults

    # -- initialization -----------------------------------------------------------

    def ensure_initialized(self, klass: RuntimeClass) -> None:
        """Run static initialization once, superclass first (JLS order)."""
        if klass.initialized or klass.initializing:
            return
        klass.initializing = True
        try:
            if klass.superclass is not None:
                self.ensure_initialized(klass.superclass)
            defaults = getattr(klass, "_static_value_defaults", None)
            if defaults:
                klass.statics.update(defaults)
            clinit = klass.methods.get(("<clinit>", (), "V"))
            if clinit is not None and clinit.code is not None:
                self.runtime.interpreter.execute(clinit, [])
            klass.initialized = True
            for listener in self.runtime.fanout.on_class_initialized:
                listener.on_class_initialized(klass)
        finally:
            klass.initializing = False
