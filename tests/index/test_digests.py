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
  edits.
"""

from repro.benchsuite.shared_corpus import build_shared_corpus_app
from repro.core import CollectStage, RevealConfig
from repro.core.body_cache import exact_method_digest
from repro.dex import assemble
from repro.index import method_digests, class_fuzzy_digest
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


class TestExactDigest:
    def test_pool_index_shifts_are_invisible(self):
        # The same shared library class lands in two different apps
        # whose pools order symbols differently (per-app unique classes
        # and package names shift every index); the canonical digest of
        # each shared method must agree across the apps.
        one = build_shared_corpus_app("x.alpha", app_seed=1)
        two = build_shared_corpus_app("y.omega", app_seed=2)
        store_one = _collect_store(one.apk)
        store_two = _collect_store(two.apk)
        shared_sigs = [
            r.signature for r in store_one.executed_records()
            if r.class_desc in one.shared_classes
        ]
        assert shared_sigs  # the launch exercises the libraries
        for sig in shared_sigs:
            rec_one, rec_two = store_one.get(sig), store_two.get(sig)
            assert rec_one is not None and rec_two is not None
            assert exact_method_digest(rec_one) == \
                exact_method_digest(rec_two), sig

    def test_deterministic(self):
        record = _record(_VARIANT_A, "La/One;", "a.one")
        assert exact_method_digest(record) == exact_method_digest(record)


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
        forward = class_fuzzy_digest(members)
        backward = class_fuzzy_digest(list(reversed(members)))
        assert forward == backward
        assert forward is None or len(forward) == 70
