"""Exception hierarchy for the DexLego reproduction.

Every error raised by this package derives from :class:`ReproError` so
callers can catch the whole family with one clause.  Subsystems raise the
narrower classes below; nothing in the package raises bare ``Exception``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class DexError(ReproError):
    """Base class for DEX container and bytecode errors."""


class DexFormatError(DexError):
    """A binary DEX file is malformed (bad magic, checksum, offsets...)."""


class DexEncodeError(DexError):
    """A DEX model cannot be serialised (operand out of range, too large)."""


class AssemblyError(DexError):
    """Smali-like assembly text could not be parsed or resolved."""


class VerificationError(DexError):
    """A DEX file failed structural verification."""


class RuntimeVmError(ReproError):
    """Base class for errors inside the simulated Android Runtime."""


class ClassLinkError(RuntimeVmError):
    """A class, method or field could not be resolved or linked."""


class VmCrash(RuntimeVmError):
    """The simulated process died (unhandled VM exception or native crash)."""

    def __init__(self, message: str, vm_exception: object | None = None) -> None:
        super().__init__(message)
        self.vm_exception = vm_exception


class NativeCrash(VmCrash):
    """A native (JNI-analogue) method aborted the process."""


class BudgetExceeded(RuntimeVmError):
    """An execution budget (instruction count) was exhausted.

    Used to bound runaway loops during fuzzing and force execution; it is
    the analogue of the paper's wall-clock execution budget.
    """


class PackerError(ReproError):
    """A packing service failed or is unavailable."""


class PackerUnavailable(PackerError):
    """The packing service cannot be used (offline / rejected / silent)."""

    def __init__(self, service: str, reason: str) -> None:
        super().__init__(f"{service}: {reason}")
        self.service = service
        self.reason = reason


class ReassemblyError(ReproError):
    """The offline reassembler could not produce a valid DEX."""


class StageError(ReproError):
    """A pipeline stage failed; names the stage and keeps the cause.

    Raised by the staged pipeline (:mod:`repro.core.stages`) so callers
    learn *where* a reveal died — ``collect``, ``reassemble``,
    ``verify`` or ``repack`` — without parsing messages.  ``cause`` is
    the original exception (e.g. a :class:`VerificationError` from the
    verify stage), also chained as ``__cause__``.
    """

    def __init__(self, stage: str, cause: BaseException) -> None:
        super().__init__(
            f"{stage} stage failed: {type(cause).__name__}: {cause}"
        )
        self.stage = stage
        self.cause = cause
