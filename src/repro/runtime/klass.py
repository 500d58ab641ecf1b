"""Linked runtime representation of classes, methods and fields.

The class linker turns DEX structures into :class:`RuntimeClass` /
:class:`RuntimeMethod` objects.  Crucially, each bytecode method gets its
*own mutable copy* of the code-unit array (``RuntimeMethod.code``): this
is the in-memory instruction array the interpreter fetches from and the
array self-modifying native code rewrites — the exact memory DexLego's
JIT collection reads.  It is the one copy: ``RuntimeMethod.loaded_code``
is the DEX body the method was linked from, which the runtime never
writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.dex.constants import AccessFlags
from repro.dex.structures import CodeItem, MethodRef

_STATIC = int(AccessFlags.STATIC)
_NATIVE = int(AccessFlags.NATIVE)
_ABSTRACT = int(AccessFlags.ABSTRACT)


@dataclass
class RuntimeField:
    """One declared field."""

    declaring_desc: str
    name: str
    type_desc: str
    access_flags: int = int(AccessFlags.PUBLIC)

    @property
    def is_static(self) -> bool:
        return bool(self.access_flags & AccessFlags.STATIC)

    @property
    def key(self) -> tuple[str, str]:
        return (self.declaring_desc, self.name)


class RuntimeMethod:
    """One linked method; bytecode methods own a live mutable code item.

    ``code`` is the live copy, the only body the runtime writes:
    self-modifying natives patch ``code.insns`` in place.
    ``loaded_code`` is the DEX body the method was linked from, never
    written — the snapshot the DexHunter-like baseline dumps "as
    loaded".  ``is_static``, ``is_abstract`` and the flag half of
    ``is_native`` are fixed at link time from ``access_flags``.
    """

    def __init__(
        self,
        declaring_class: "RuntimeClass",
        ref: MethodRef,
        access_flags: int,
        code: CodeItem | None = None,
        native_impl: Callable | None = None,
    ) -> None:
        self.declaring_class = declaring_class
        self.ref = ref
        self.access_flags = access_flags
        self.is_static = bool(access_flags & _STATIC)
        self.is_abstract = bool(access_flags & _ABSTRACT)
        self._native_flag = bool(access_flags & _NATIVE)
        self.code = code.copy() if code is not None else None
        self.native_impl = native_impl
        self.loaded_code = code

    @property
    def is_native(self) -> bool:
        return self._native_flag or (
            self.code is None and self.native_impl is not None
        )

    @property
    def is_constructor(self) -> bool:
        return self.ref.name in ("<init>", "<clinit>")

    @property
    def dispatch_key(self) -> tuple[str, tuple[str, ...], str]:
        return (self.ref.name, self.ref.param_descs, self.ref.return_desc)

    @property
    def signature(self) -> str:
        return self.ref.signature

    def __repr__(self) -> str:
        return f"<method {self.ref.signature}>"


class RuntimeClass:
    """One linked class."""

    def __init__(
        self,
        descriptor: str,
        superclass: "RuntimeClass | None" = None,
        interfaces: tuple["RuntimeClass", ...] = (),
        access_flags: int = int(AccessFlags.PUBLIC),
        source_dex: object = None,
    ) -> None:
        self.descriptor = descriptor
        self.superclass = superclass
        self.interfaces = interfaces
        self.access_flags = access_flags
        self.source_dex = source_dex  # DexFile this class was defined from
        self.methods: dict[tuple[str, tuple[str, ...], str], RuntimeMethod] = {}
        self.fields: dict[str, RuntimeField] = {}
        self.statics: dict[str, object] = {}
        self.initialized = False
        self.initializing = False

    # -- membership --------------------------------------------------------

    def add_method(self, method: RuntimeMethod) -> None:
        self.methods[method.dispatch_key] = method

    def add_field(self, runtime_field: RuntimeField) -> None:
        self.fields[runtime_field.name] = runtime_field

    # -- resolution ----------------------------------------------------------

    def find_method(
        self, name: str, param_descs: tuple[str, ...], return_desc: str
    ) -> RuntimeMethod | None:
        """Resolve a method by walking superclasses then interfaces."""
        key = (name, param_descs, return_desc)
        klass: RuntimeClass | None = self
        while klass is not None:
            method = klass.methods.get(key)
            if method is not None:
                return method
            klass = klass.superclass
        for interface in self.all_interfaces():
            method = interface.methods.get(key)
            if method is not None:
                return method
        return None

    def find_method_by_name(self, name: str) -> RuntimeMethod | None:
        """Resolve by bare name (reflection helper); first match wins."""
        klass: RuntimeClass | None = self
        while klass is not None:
            for method in klass.methods.values():
                if method.ref.name == name:
                    return method
            klass = klass.superclass
        return None

    def find_field(self, name: str) -> RuntimeField | None:
        klass: RuntimeClass | None = self
        while klass is not None:
            runtime_field = klass.fields.get(name)
            if runtime_field is not None:
                return runtime_field
            klass = klass.superclass
        return None

    def static_owner(self, name: str) -> "RuntimeClass | None":
        """The class in the hierarchy whose statics hold ``name``."""
        klass: RuntimeClass | None = self
        while klass is not None:
            if name in klass.fields and klass.fields[name].is_static:
                return klass
            klass = klass.superclass
        return None

    def all_interfaces(self) -> list["RuntimeClass"]:
        seen: list[RuntimeClass] = []
        klass: RuntimeClass | None = self
        while klass is not None:
            for interface in klass.interfaces:
                if interface not in seen:
                    seen.append(interface)
                    seen.extend(
                        i for i in interface.all_interfaces() if i not in seen
                    )
            klass = klass.superclass
        return seen

    def is_subclass_of(self, descriptor: str) -> bool:
        klass: RuntimeClass | None = self
        while klass is not None:
            if klass.descriptor == descriptor:
                return True
            for interface in klass.interfaces:
                if interface.is_subclass_of(descriptor):
                    return True
            klass = klass.superclass
        return False

    def __repr__(self) -> str:
        return f"<class {self.descriptor}>"
