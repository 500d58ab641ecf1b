"""Native method machinery (the JNI analogue).

Application DEX files may declare ``native`` methods; their
implementations are Python callables registered per signature.  A native
receives a :class:`NativeContext` exposing the runtime *and* the live
code-unit arrays of loaded methods — which is exactly the capability
self-modifying malware exploits (paper Code 1: ``bytecodeTamper``).
"""

from __future__ import annotations

from typing import Callable

from repro.dex.sigs import parse_method_signature
from repro.errors import ClassLinkError, NativeCrash


class NativeContext:
    """What a native method implementation can touch."""

    def __init__(self, runtime, frame, method) -> None:
        self.runtime = runtime
        self.frame = frame
        self.method = method

    # -- the self-modification primitive ---------------------------------

    def method_code_units(self, signature: str) -> list[int]:
        """Mutable live code-unit array of a loaded bytecode method.

        Writing into the returned list modifies the instructions the
        interpreter will fetch next — in-place bytecode tampering.
        """
        ref = parse_method_signature(signature)
        klass = self.runtime.class_linker.lookup(ref.class_desc)
        method = klass.find_method(ref.name, ref.param_descs, ref.return_desc)
        if method is None or method.code is None:
            raise ClassLinkError(f"no bytecode method {signature}")
        return method.code.insns

    def patch_code(self, signature: str, unit_offset: int, units: list[int]) -> None:
        """Overwrite ``units`` into a method's code array at ``unit_offset``."""
        code = self.method_code_units(signature)
        code[unit_offset : unit_offset + len(units)] = units

    def _live_dex(self, class_desc: str):
        klass = self.runtime.class_linker.lookup(class_desc)
        if klass.source_dex is None:
            raise ClassLinkError(f"{class_desc} is not backed by a DEX file")
        return klass.source_dex

    def method_pool_index(self, host_class: str, target_signature: str) -> int:
        """Pool index of ``target_signature`` in the live DEX of ``host_class``.

        Self-modifying code must compute indices against the DEX the class
        was actually loaded from — after packing/unpacking the pool order
        differs from build time.  Interning is safe: the interpreter
        resolves through the same live pool.
        """
        dex = self._live_dex(host_class)
        return dex.intern_method_ref(parse_method_signature(target_signature))

    def string_pool_index(self, host_class: str, value: str) -> int:
        """Pool index of a string in the live DEX of ``host_class``."""
        return self._live_dex(host_class).intern_string(value)

    def find_invoke_pc(self, method_signature: str, callee_name: str) -> int:
        """dex_pc of the first invoke of ``callee_name`` in a live method."""
        ref = parse_method_signature(method_signature)
        dex = self._live_dex(ref.class_desc)
        klass = self.runtime.class_linker.lookup(ref.class_desc)
        method = klass.find_method(ref.name, ref.param_descs, ref.return_desc)
        if method is None or method.code is None:
            raise ClassLinkError(f"no bytecode method {method_signature}")
        for dex_pc, ins in method.code.instructions():
            if ins.opcode.is_invoke:
                if dex.method_ref(ins.pool_index).name == callee_name:
                    return dex_pc
        raise ClassLinkError(
            f"{method_signature} has no invoke of {callee_name!r}"
        )

    # -- conveniences -------------------------------------------------------

    def crash(self, reason: str):
        raise NativeCrash(f"native crash in {self.method.ref.signature}: {reason}")


class NativeRegistry:
    """Signature -> Python implementation for app-declared natives."""

    def __init__(self) -> None:
        self._impls: dict[str, Callable] = {}

    def register(self, signature: str, impl: Callable) -> None:
        self._impls[signature] = impl

    def register_all(self, impls: dict[str, Callable]) -> None:
        self._impls.update(impls)

    def resolve(self, signature: str) -> Callable | None:
        return self._impls.get(signature)

    def copy(self) -> "NativeRegistry":
        clone = NativeRegistry()
        clone._impls = dict(self._impls)
        return clone
