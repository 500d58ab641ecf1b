"""Method digest pipeline: exact, normalized and fuzzy digests.

The claims under test are the ones the corpus index leans on:

* the *exact* digest is insensitive to string/type/field/method pool
  ordering (two apps embedding the same class byte-for-byte get the
  same digest even though their pools assign different indices), but
  sensitive to registers and identifiers;
* the *normalized* digest is additionally insensitive to register
  allocation and identifier renaming (first-use ordinals), the
  library-variant detector;
* the *fuzzy* digest feeds similarity search and tolerates small body
  edits;
* a :class:`CorpusIndex` serves each digest it computed again by exact
  digest (a class digest by its members' exact digests), and what it
  serves equals a fresh digest of the record in hand.
"""

import threading

from repro.benchsuite.shared_corpus import build_shared_corpus_app
from repro.core import CollectStage, RevealConfig
from repro.dex import assemble
from repro.dex.opcodes import IndexKind
from repro.index import (
    CorpusIndex,
    class_fuzzy_digest,
    method_digests,
    reveal_digests,
)
from repro.index import corpus as corpus_module
from repro.index.digests import MethodDigests
from repro.runtime import Apk


def _collect_store(apk):
    return CollectStage(RevealConfig()).run(apk).archive.collector.method_store


def _record(smali: str, main_cls: str, package: str):
    apk = Apk(package, main_cls, [assemble(smali)])
    store = _collect_store(apk)
    return store.get(f"{main_cls}->onCreate(Landroid/os/Bundle;)V")


# Two structurally identical activities: registers permuted
# (v0↔v3, v1↔v2) and every identifier renamed.
_VARIANT_A = """
.class public La/One;
.super Landroid/app/Activity;
.field public total:I

.method public onCreate(Landroid/os/Bundle;)V
    .registers 6
    const/4 v0, 0
    const/4 v1, 0
    :loop
    const/16 v2, 10
    if-ge v1, v2, :done
    mul-int v3, v1, v1
    add-int v0, v0, v3
    add-int/lit8 v1, v1, 1
    goto :loop
    :done
    iput v0, p0, La/One;->total:I
    return-void
.end method
"""

_VARIANT_B = """
.class public Lb/Two;
.super Landroid/app/Activity;
.field public acc:I

.method public onCreate(Landroid/os/Bundle;)V
    .registers 6
    const/4 v3, 0
    const/4 v2, 0
    :loop
    const/16 v1, 10
    if-ge v2, v1, :done
    mul-int v0, v2, v2
    add-int v3, v3, v0
    add-int/lit8 v2, v2, 1
    goto :loop
    :done
    iput v3, p0, Lb/Two;->acc:I
    return-void
.end method
"""


class TestNormalizedDigest:
    def test_register_and_identifier_renaming_is_invisible(self):
        a = method_digests(_record(_VARIANT_A, "La/One;", "a.one"))
        b = method_digests(_record(_VARIANT_B, "Lb/Two;", "b.two"))
        assert a.norm == b.norm

    def test_exact_digest_sees_the_renaming(self):
        a = method_digests(_record(_VARIANT_A, "La/One;", "a.one"))
        b = method_digests(_record(_VARIANT_B, "Lb/Two;", "b.two"))
        assert a.exact != b.exact

    def test_fuzzy_digest_is_stable_under_renaming(self):
        # The fuzzy stream derives from the same normalized tokens, so
        # register permutation + identifier renaming cannot move even a
        # single histogram bucket — LSH buckets see one method, not two.
        a = method_digests(_record(_VARIANT_A, "La/One;", "a.one"))
        b = method_digests(_record(_VARIANT_B, "Lb/Two;", "b.two"))
        assert a.fuzzy is not None
        assert a.fuzzy == b.fuzzy


def _pool_shift_twin():
    """Two apps embedding the same shared library classes, whose pools
    give the shared methods' references different indices.

    Read from bytes, as a front end reads them, the written pools are
    sorted: the twin's package sorts before the shared namespace and the
    first app's after it, so every pool index the shared methods hold
    differs between the two.  Returns both stores and the shared
    methods' signatures.
    """
    one = build_shared_corpus_app("z.omega", app_seed=1)
    two = build_shared_corpus_app("a.alpha", app_seed=2)
    store_one = _collect_store(Apk.from_bytes(one.apk.to_bytes()))
    store_two = _collect_store(Apk.from_bytes(two.apk.to_bytes()))
    shared = [r.signature for r in store_one.executed_records()
              if r.class_desc in one.shared_classes]
    assert shared  # the launch exercises the libraries

    def pool_operands(record) -> list:
        return [c.instruction.operands for tree in record.trees
                for c in tree.root.il
                if c.instruction.opcode.index_kind is not IndexKind.NONE]
    pairs = [pair for signature in shared for pair in zip(
        pool_operands(store_one.get(signature)),
        pool_operands(store_two.get(signature)))]
    assert pairs and all(a != b for a, b in pairs)
    return store_one, store_two, shared


class TestExactDigest:
    def test_pool_index_shifts_are_invisible(self):
        # The same shared library class lands in two different apps
        # whose pools order symbols differently; the canonical digest of
        # each shared method must agree across the apps.
        store_one, store_two, shared = _pool_shift_twin()
        for sig in shared:
            rec_one, rec_two = store_one.get(sig), store_two.get(sig)
            assert rec_one is not None and rec_two is not None
            assert method_digests(rec_one).exact == \
                method_digests(rec_two).exact, sig

    def test_deterministic(self):
        record = _record(_VARIANT_A, "La/One;", "a.one")
        assert method_digests(record) == method_digests(record)


class TestMethodDigests:
    def test_shape(self):
        digests = method_digests(_record(_VARIANT_A, "La/One;", "a.one"))
        assert isinstance(digests, MethodDigests)
        assert len(digests.exact) == 64 and int(digests.exact, 16) >= 0
        assert len(digests.norm) == 64 and int(digests.norm, 16) >= 0
        assert digests.fuzzy is None or len(digests.fuzzy) == 70

    def test_precomputed_exact_is_honoured(self):
        record = _record(_VARIANT_A, "La/One;", "a.one")
        digests = method_digests(record, exact="f" * 64)
        assert digests.exact == "f" * 64


class TestClassFuzzyDigest:
    def test_member_order_is_irrelevant(self):
        app = build_shared_corpus_app("z.ordered", app_seed=3)
        store = _collect_store(app.apk)
        lib = app.shared_classes[0]
        members = [r for r in store.executed_records()
                   if r.class_desc == lib]
        assert len(members) >= 3
        digests = reveal_digests(members)
        forward = class_fuzzy_digest(members, digests)
        backward = class_fuzzy_digest(list(reversed(members)), digests)
        assert forward == backward
        assert forward is None or len(forward) == 70


def _fields(digests: MethodDigests) -> tuple:
    # ``fuzzy_bytes`` is ``compare=False``: ``==`` would skip it.
    return (digests.exact, digests.norm, digests.fuzzy,
            digests.fuzzy_bytes)


def _by_class(records) -> dict:
    classes: dict = {}
    for record in records:
        classes.setdefault(record.class_desc, []).append(record)
    return classes


def _served_equals_fresh(index: CorpusIndex, records) -> dict:
    """Digest ``records`` through ``index``'s memo; every method and
    class digest it serves must equal one computed fresh from the
    records in hand.  Returns the served map."""
    served = index.reveal_digests(records)
    fresh = {record.signature: method_digests(record) for record in records}
    assert served.keys() == fresh.keys()
    for signature, method in served.items():
        assert _fields(method) == _fields(fresh[signature]), signature
    for class_desc, members in _by_class(records).items():
        assert index.class_fuzzy_digest(members, served) == \
            class_fuzzy_digest(members, fresh), class_desc
    return served


_LIB_SMALI = """
.class public La/Main;
.super Landroid/app/Activity;
.method public onCreate(Landroid/os/Bundle;)V
    .registers 3
    invoke-static {{}}, Lz/Lib;->one()I
    move-result v0
{extra}
    return-void
.end method

.class public Lz/Lib;
.super Ljava/lang/Object;
.method public static one()I
    .registers 4
    const/4 v0, 0
    const/4 v1, 0
    :loop
    const/16 v2, 10
    if-ge v1, v2, :done
    add-int v0, v0, v1
    add-int/lit8 v1, v1, 1
    goto :loop
    :done
    return v0
.end method
.method public static two()I
    .registers 4
    const/4 v0, 1
    const/4 v1, 0
    :loop
    const/16 v2, 7
    if-ge v1, v2, :done
    mul-int v0, v0, v2
    add-int/lit8 v1, v1, 2
    goto :loop
    :done
    return v0
.end method
"""


class TestDigestMemo:
    """What a :class:`CorpusIndex` serves from its digest memo equals a
    fresh digest, field by field, wherever keys could collide."""

    def test_shared_corpus_serves_fresh_digests(self, tmp_path):
        index = CorpusIndex(tmp_path / "index")
        apps = [build_shared_corpus_app(f"memo.app{i}", corpus_seed=3,
                                        app_seed=i) for i in range(3)]
        first = _served_equals_fresh(
            index, _collect_store(apps[0].apk).executed_records())
        hits = 0
        for app in apps[1:]:
            served = _served_equals_fresh(
                index, _collect_store(app.apk).executed_records())
            hits += sum(1 for signature, method in served.items()
                        if first.get(signature) is method)
        assert hits > 0  # the later apps really were served from memory

    def test_pool_shift_twin_is_served_the_first_apps_digests(
            self, tmp_path):
        # A norm walk that read a pool index would give the twin other
        # tokens than the digests the memo serves it.
        store_one, store_two, shared = _pool_shift_twin()
        index = CorpusIndex(tmp_path / "index")
        first = _served_equals_fresh(index, store_one.executed_records())
        second = _served_equals_fresh(index, store_two.executed_records())
        assert all(second[signature] is first[signature]
                   for signature in shared)

    def test_one_signature_with_two_bodies(self, tmp_path):
        changed = _VARIANT_A.replace("const/16 v2, 10", "const/16 v2, 11")
        index = CorpusIndex(tmp_path / "index")
        signature = "La/One;->onCreate(Landroid/os/Bundle;)V"
        first = _served_equals_fresh(
            index, [_record(_VARIANT_A, "La/One;", "a.one")])
        second = _served_equals_fresh(
            index, [_record(changed, "La/One;", "a.two")])
        assert first[signature].exact != second[signature].exact
        assert first[signature].norm != second[signature].norm

    def test_one_class_with_two_member_sets(self, tmp_path):
        index = CorpusIndex(tmp_path / "index")
        extra = "    invoke-static {}, Lz/Lib;->two()I\n    move-result v1"
        digests = []
        for package, body in (("lib.one", ""), ("lib.two", extra)):
            apk = Apk(package, "La/Main;",
                      [assemble(_LIB_SMALI.format(extra=body))])
            records = [r for r in _collect_store(apk).executed_records()
                       if r.class_desc == "Lz/Lib;"]
            served = _served_equals_fresh(index, records)
            digests.append(index.class_fuzzy_digest(records, served))
        assert None not in digests
        assert digests[0] != digests[1]

    def test_threads_share_one_object_per_key(self, tmp_path, monkeypatch):
        # Every thread misses the first record and computes its own
        # digests before any of them writes; the writes must still
        # leave one object per key for all of them.
        index = CorpusIndex(tmp_path / "index")
        app = build_shared_corpus_app("memo.threads", corpus_seed=3,
                                      app_seed=1)
        records = _collect_store(app.apk).executed_records()
        barrier, local = threading.Barrier(4), threading.local()
        compute = corpus_module.document_digests

        def computed_together(doc, exact):
            digests = compute(doc, exact)
            if not getattr(local, "waited", False):
                local.waited = True
                barrier.wait(timeout=30)
            return digests
        monkeypatch.setattr(corpus_module, "document_digests",
                            computed_together)
        results: list = []
        threads = [threading.Thread(
            target=lambda: results.append(index.reveal_digests(records)))
            for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(results) == 4
        for record in records:
            assert len({id(served[record.signature])
                        for served in results}) == 1

    def test_a_fresh_index_starts_empty(self, tmp_path):
        # The memo lives on the instance: a second index over the same
        # directory computes its own, equal, digests.
        records = _collect_store(build_shared_corpus_app(
            "memo.fresh", corpus_seed=3, app_seed=1).apk).executed_records()
        first = CorpusIndex(tmp_path / "index").reveal_digests(records)
        second = CorpusIndex(tmp_path / "index").reveal_digests(records)
        for signature, method in first.items():
            assert second[signature] is not method
            assert _fields(second[signature]) == _fields(method)
