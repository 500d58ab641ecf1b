"""``AndroidRuntime`` — the composed ART analogue.

Owns the class linker, interpreter, native registry, instrumentation
listeners, the simulated device, an in-memory filesystem, the UI
registry and the source/sink event logs.  Every experiment in the paper
runs an application inside one of these.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BudgetExceeded
from repro.runtime.bootclasspath import register_boot_classes
from repro.runtime.class_linker import ClassLinker
from repro.runtime.device import NEXUS_5X, DeviceProfile
from repro.runtime.hooks import BranchController, ListenerFanout, RuntimeListener
from repro.runtime.interpreter import Interpreter
from repro.runtime.natives import NativeRegistry
from repro.runtime.values import VmObject, VmString, provenance_of


@dataclass
class SinkEvent:
    """One observed call into a sink API."""

    sink_signature: str
    argument_repr: str
    provenance: frozenset[str]
    caller_signature: str | None

    @property
    def is_leak(self) -> bool:
        """True when tainted (source-derived) data reached the sink."""
        return bool(self.provenance)


@dataclass
class SourceEvent:
    """One observed call into a source API."""

    source_signature: str
    tag: str
    caller_signature: str | None


class AndroidRuntime:
    """One simulated Android process."""

    def __init__(
        self,
        device: DeviceProfile = NEXUS_5X,
        max_steps: int | None = None,
    ) -> None:
        self.device = device
        self.listeners: list[RuntimeListener] = []
        self.fanout = ListenerFanout(())
        self.natives = NativeRegistry()
        self.class_linker = ClassLinker(self)
        self.interpreter = Interpreter(self)
        self.branch_controller: BranchController | None = None
        self.tolerate_exceptions = False
        self.max_steps = max_steps
        self.steps = 0
        self.clock_ms = 0
        self._rng_state = 0x5DEECE66D
        self._string_pools: dict[int, dict[int, VmString]] = {}
        # Simulated environment state.
        self.filesystem: dict[str, bytes] = {}
        self.shared_prefs: dict[str, dict[str, object]] = {}
        self.ui_views: dict[int, VmObject] = {}
        self.click_listeners: list[tuple[VmObject, VmObject]] = []
        self.stdout: list[str] = []
        # Taint oracle logs.
        self.sink_log: list[SinkEvent] = []
        self.source_log: list[SourceEvent] = []
        self.current_apk = None
        register_boot_classes(self)

    # -- listeners -----------------------------------------------------------

    def add_listener(self, listener: RuntimeListener) -> None:
        """Attach a listener (the only supported way to add one: it
        rebuilds the per-event fan-out the interpreter dispatches on)."""
        self.listeners.append(listener)
        self.fanout = ListenerFanout(self.listeners)

    def remove_listener(self, listener: RuntimeListener) -> None:
        self.listeners.remove(listener)
        self.fanout = ListenerFanout(self.listeners)

    # -- budget / clock -----------------------------------------------------

    def consume_step(self) -> None:
        self.steps += 1
        self.clock_ms += 1 if self.steps % 997 == 0 else 0
        if self.max_steps is not None and self.steps > self.max_steps:
            raise BudgetExceeded(
                f"execution budget of {self.max_steps} steps exhausted"
            )

    def reset_budget(self, max_steps: int | None) -> None:
        self.max_steps = max_steps
        self.steps = 0

    def next_random(self) -> float:
        """Deterministic PRNG behind Math.random / java.util.Random."""
        self._rng_state = (self._rng_state * 6364136223846793005 + 1442695040888963407) % (
            1 << 64
        )
        return (self._rng_state >> 11) / float(1 << 53)

    # -- values ---------------------------------------------------------------

    def interned_string(self, dex, string_idx: int) -> VmString:
        pool = self._string_pools.setdefault(id(dex), {})
        value = pool.get(string_idx)
        if value is None:
            value = VmString(dex.string(string_idx))
            pool[string_idx] = value
        return value

    def new_exception(self, descriptor: str, message: str = "") -> VmObject:
        klass = self.class_linker.lookup(descriptor)
        obj = VmObject(klass)
        obj.fields[("Ljava/lang/Throwable;", "message")] = VmString(message)
        return obj

    # -- taint oracle -----------------------------------------------------------

    def record_source(self, signature: str, tag: str, frame) -> None:
        caller = frame.method.ref.signature if frame is not None else None
        self.source_log.append(SourceEvent(signature, tag, caller))

    def record_sink(self, signature: str, args: list, frame) -> None:
        tags: set[str] = set()
        for arg in args:
            tags |= provenance_of(arg)
        caller = frame.method.ref.signature if frame is not None else None
        self.sink_log.append(
            SinkEvent(
                signature,
                ", ".join(_brief(a) for a in args),
                frozenset(tags),
                caller,
            )
        )

    def observed_leaks(self) -> list[SinkEvent]:
        """Sink events that actually received source-derived data."""
        return [event for event in self.sink_log if event.is_leak]

    # -- app installation ----------------------------------------------------------

    def install_apk(self, apk) -> list[str]:
        """Register the APK's DEX files and native libraries."""
        self.current_apk = apk
        descriptors: list[str] = []
        for dex in apk.dex_files:
            descriptors.extend(self.class_linker.register_dex(dex))
        for impls in apk.iter_native_impls():
            self.natives.register_all(impls)
        return descriptors

    def call(self, signature: str, *args):
        """Convenience: resolve and execute a method by signature."""
        return self.interpreter.invoke_signature(signature, list(args))


def _brief(value) -> str:
    text = repr(value)
    return text if len(text) <= 64 else text[:61] + "..."
