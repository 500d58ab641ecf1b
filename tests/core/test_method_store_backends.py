"""MethodStore lookup semantics and backend equivalence.

The corpus index registers methods straight out of a reveal's
:class:`MethodStore`, so two properties matter beyond the existing
differential suite:

* the store's mutation API (``ensure``/``add_tree``) keeps what it
  holds — re-linking never clobbers a record;
* the store a collection produces is *identical* (signatures, tree
  fingerprints, structural metadata) whichever replay backend and
  worker count explored the app — otherwise the same APK would index
  differently depending on how it was revealed.
"""

import pytest

from repro.core import (
    BACKEND_PROCESS,
    BACKEND_SERIAL,
    CollectStage,
    RevealConfig,
)
from repro.core.method_store import MethodRecord, MethodStore
from repro.dex import assemble
from repro.index.digests import method_digests
from repro.runtime import Apk


def _record(signature="La/C;->m()V", **kwargs):
    defaults = dict(
        class_desc="La/C;",
        name="m",
        param_descs=(),
        return_desc="V",
        access_flags=0x1,
    )
    defaults.update(kwargs)
    return MethodRecord(signature=signature, **defaults)


class TestStoreSemantics:
    def test_ensure_keeps_the_first_record(self):
        store = MethodStore()
        first = store.ensure(_record())
        second = store.ensure(_record(access_flags=0x9))
        assert second is first
        assert len(store) == 1

    def test_get_miss_is_none(self):
        assert MethodStore().get("La/C;->missing()V") is None

    def test_add_tree_to_unknown_signature_is_refused(self):
        store = MethodStore()
        assert store.add_tree("La/C;->missing()V", object()) is False


# Two one-sided gates at different depths: force execution schedules
# several replay waves, so process pools have room to interleave.
_GATED = """
.class public Lms/Gated;
.super Landroid/app/Activity;
.field public static a:I = 0
.field public static b:I = 0

.method public onCreate(Landroid/os/Bundle;)V
    .registers 4
    const/4 v0, 0
    if-nez v0, :skip0
    sget v1, Lms/Gated;->a:I
    add-int/lit8 v1, v1, 1
    sput v1, Lms/Gated;->a:I
    :skip0
    const/4 v0, 0
    if-nez v0, :skip1
    sget v1, Lms/Gated;->b:I
    add-int/lit8 v1, v1, 1
    sput v1, Lms/Gated;->b:I
    :skip1
    invoke-virtual {p0}, Lms/Gated;->helper()I
    move-result v2
    return-void
.end method

.method public helper()I
    .registers 2
    const/16 v0, 42
    return v0
.end method
"""


def _gated_apk() -> Apk:
    return Apk("ms.gated", "Lms/Gated;", [assemble(_GATED)])


def _collect_store(backend: str, workers: int):
    config = RevealConfig(
        use_force_execution=True,
        force_iterations=8,
        explore_workers=workers,
        explore_backend=backend,
    )
    return CollectStage(config).run(_gated_apk()).archive.collector.method_store


def _snapshot(store: MethodStore) -> dict:
    """Everything the corpus index reads off a store, normalised."""
    snap = {}
    for sig, rec in store.records.items():
        digests = None
        if rec.executed:
            method = method_digests(rec)
            digests = (method.exact, method.norm)
        snap[sig] = {
            "class": rec.class_desc,
            "regs": (rec.registers_size, rec.ins_size, rec.outs_size),
            "flags": rec.access_flags,
            "native": rec.is_native,
            "executed": rec.executed,
            "digests": digests,
            # Raw units included: workers run on the engine's own APK,
            # so they see the very pool indices serial replays see.
            "trees": [t.to_dict() for t in rec.trees],
            "tries": [t.to_dict() for t in rec.tries],
        }
    return snap


class TestBackendEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("backend", [BACKEND_PROCESS])
    def test_store_contents_identical_across_backends(self, backend,
                                                      workers):
        reference = _snapshot(_collect_store(BACKEND_SERIAL, 1))
        assert _snapshot(_collect_store(backend, workers)) == reference

    def test_reference_store_is_not_vacuous(self):
        store = _collect_store(BACKEND_SERIAL, 1)
        executed = store.executed_records()
        assert len(executed) >= 2  # onCreate + helper at minimum
        assert any(rec.trees for rec in executed)
