"""Serialising the cross-copy predecode store (warm decode state).

The interpreter's shared decode store (:class:`~repro.dex.code_units.CodeUnits`
``shared``) lets every in-process copy of a code item reuse the first
decode of each instruction.  That store is process memory: a resumed
session, which reads the app back from its bytes, starts cold and
re-decodes the whole hot set.  This module moves the warm state across
that boundary (the collection archive carries it):

* :func:`export_predecode_index` snapshots every shared store into a
  JSON-safe index keyed by method signature.  Only entries whose
  recorded raw units still equal the *pristine* code item's live bytes
  are exported — a decode taken from a self-modified copy never leaves
  the process.
* :func:`warm_predecode` rebuilds entries into another process's (or
  session's) code items.  Adoption is content-validated exactly like
  in-process sharing: an entry is re-decoded from the index's raw units
  and installed only when those bytes equal the target array's live
  bytes, so a stale entry — recorded against an older generation of the
  code — is rejected by raw-byte compare, never trusted.

The index never carries decoded objects (handlers are process-local
bound callables); it carries the *facts* needed to re-decode cheaply
and verifiably: pc, the source array's generation at export time, and
the raw code units the decode covered.
"""

from __future__ import annotations

from repro.dex.instructions import Instruction
from repro.runtime.interpreter import _DISPATCH

#: Format version of the serialised index.  Bumped whenever the entry
#: layout changes; loaders refuse foreign versions outright.
PREDECODE_INDEX_VERSION = 1


def export_predecode_index(dex_files) -> dict:
    """Snapshot the shared decode stores of ``dex_files`` as a dict.

    Returns ``{"version": 1, "methods": [...]}`` where each method entry
    is ``{"signature", "generation", "entries": [[pc, [raw units...]],
    ...]}``.  Entries whose raw units no longer match the code item's
    live bytes (the pristine array itself was patched since the decode)
    are dropped at export — the index only ever describes code that can
    be re-verified byte-for-byte on the other side.
    """
    methods = []
    for dex in dex_files:
        for _class_def, method, ref in dex.iter_methods():
            code = method.code
            if code is None:
                continue
            units = code.insns
            shared = getattr(units, "shared", None)
            if not shared:
                continue
            entries = []
            for pc in sorted(shared):
                entry = shared[pc]
                raw = entry[4]
                if tuple(units[pc:pc + entry[3]]) != raw:
                    continue  # decode belongs to a modified copy: skip
                entries.append([pc, list(raw)])
            if entries:
                methods.append({
                    "signature": ref.signature,
                    "generation": units.generation,
                    "entries": entries,
                })
    return {"version": PREDECODE_INDEX_VERSION, "methods": methods}


def validate_predecode_index(index: dict) -> dict:
    """Check the index format version; returns the index unchanged."""
    version = index.get("version")
    if version != PREDECODE_INDEX_VERSION:
        raise ValueError(
            f"unsupported predecode index version {version!r} "
            f"(this build reads version {PREDECODE_INDEX_VERSION})"
        )
    return index


def warm_predecode(dex_files, index: dict) -> int:
    """Install exported decode entries into ``dex_files``' shared stores.

    Every entry is re-validated against the target code item's *live*
    bytes before adoption — the raw-byte compare that also guards
    in-process sharing — so entries recorded against a generation of
    the code that no longer exists are silently rejected rather than
    resurrected.  Returns the number of entries adopted.  Raises
    ``ValueError`` on a foreign index format version.
    """
    validate_predecode_index(index)
    by_signature = {}
    for dex in dex_files:
        for _class_def, method, ref in dex.iter_methods():
            if method.code is not None:
                by_signature[ref.signature] = method.code
    adopted = 0
    for entry in index.get("methods", ()):
        code = by_signature.get(entry["signature"])
        if code is None:
            continue
        units = code.insns
        shared = getattr(units, "shared", None)
        if shared is None:
            continue
        for pc, raw in entry["entries"]:
            raw_units = tuple(raw)
            if tuple(units[pc:pc + len(raw_units)]) != raw_units:
                continue  # stale generation: bytes moved on, reject
            if pc in shared:
                continue  # this process already decoded it
            try:
                ins = Instruction.decode_at(units, pc)
            except Exception:
                continue  # index lied about decodability: stay cold
            if tuple(units[pc:pc + ins.unit_count]) != raw_units:
                continue  # decode spans different bytes than recorded
            shared.setdefault(
                pc,
                (
                    units.generation,
                    ins,
                    _DISPATCH[ins.opcode.value],
                    ins.unit_count,
                    raw_units,
                ),
            )
            adopted += 1
    return adopted
