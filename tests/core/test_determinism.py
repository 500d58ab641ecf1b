"""Differential determinism: the replay backends must be bit-identical.

The tentpole contract of the process-parallel exploration work: every
replay — serial, or on a process pool at any worker count — comes back
as a :class:`~repro.core.replay.TraceDelta` and is merged into shared
state strictly in pop order by the engine alone.  Therefore the
*entire observable outcome* of an exploration is a pure function of
the APK and the configuration, never of the backend or how replays
happened to interleave.

These tests run the same workloads through both backends and diff the
results structurally: exploration order, coverage curve, covered-UCB
sets, report counters, collector statistics, and the serialised
collection-archive payload byte for byte.

:class:`TestResumeMerge` holds a resumed reveal to the same standard:
its archive merge, now the collector's own ``absorb``, is diffed
against the JSON-level merge it replaced.

:class:`TestOfflineBoundary` diffs the two sides of the paper's offline
boundary: a reveal reassembles from the live collector in process, and
``reveal_from_archive`` from the collection files alone; both must give
the same bytes.

:class:`TestFrontEndsAndRepack` diffs the front ends: the library's
``reveal_apk`` and the service's ``reveal_one`` must reveal the same
bytes, and ``RepackStage`` must build what the serialise-and-reread
copy it replaced built.

:class:`TestSharedBootClasspath` diffs the runtime's construction:
every runtime registering the one read-only boot classpath, with one
body copy per method, must reveal and unpack what runtimes that each
built their own framework specs and copied ``loaded_code`` did.

Wherever these tests read an archive's files (explorations, resume
merges, the offline boundary, the front ends), they first diff its
dump size, counted from the collector without rendering, against the
length of the files' render: plain reveals of generated F-Droid-profile
apps at seeds 1 and 4409, force-execution reveals, resumes and
explorations of generated apps and DroidBench samples, DroidBench
without force execution, and the packed market apps.
"""

import json

import pytest

from repro.analysis.unpacker_baselines import AppSpearLike, DexHunterLike
from repro.benchsuite import build_market_app, droidbench_samples, sample_by_name
from repro.benchsuite.categories import dynload, reflection
from repro.benchsuite.categories.selfmod import samples as selfmod_samples
from repro.benchsuite.codegen import AppProfile, generate_app
from repro.benchsuite.market_apps import MARKET_APP_SPECS
from repro.benchsuite.smali_lib import multi_class_apk
from repro.core import (
    BACKEND_PROCESS,
    BACKEND_SERIAL,
    EXPLORE_BACKENDS,
    CollectionArchive,
    CollectStage,
    DexLegoCollector,
    ForceExecutionEngine,
    Pipeline,
    ReassembleStage,
    RevealConfig,
    resume_exploration,
    reveal_apk,
    reveal_from_archive,
)
from repro.core import force_execution, replay
from repro.core.collection_files import (
    ALL_FILES,
    BYTECODE_FILE,
    CLASS_DATA_FILE,
    EXPLORATION_STATE_FILE,
    FIELD_DATA_FILE,
    METHOD_DATA_FILE,
    REFLECTION_FILE,
    STATIC_VALUES_FILE,
)
from repro.dex import assemble, write_dex
from repro.dex.instructions import Instruction
from repro.errors import VmCrash
from repro.runtime import Apk, register_native_library
from repro.runtime import android_api, art, intrinsics
from repro.runtime import reflection as reflection_api
from repro.runtime.device import NEXUS_5X
from repro.runtime.klass import RuntimeMethod
from repro.service import BatchRevealService, RevealJob

#: Fields of the report summary that *declare* how the run executed;
#: they differ across backends by construction and are excluded from
#: the result diff.  Everything else must match exactly.
DECLARED = {"backend", "workers"}


def _branchy_apk(package: str = "d.branchy") -> Apk:
    """A loop-guarded gate plus two sequential gates: three UCBs at
    different depths, several waves of replays — enough work that a
    racy merge would actually have room to race."""
    text = """
.class public Ld/Branchy;
.super Landroid/app/Activity;
.field public static a:I = 0
.field public static b:I = 0
.field public static c:I = 0

.method public onCreate(Landroid/os/Bundle;)V
    .registers 6
    const/4 v0, 0
    :loop
    const/4 v3, 0
    if-nez v3, :locked0
    :skip0
    add-int/lit8 v0, v0, 1
    const/4 v4, 3
    if-ne v0, v4, :loop
    const/4 v1, 0
    if-nez v1, :locked1
    :next1
    const/4 v1, 0
    if-nez v1, :locked2
    :next2
    return-void
    :locked0
    sget v2, Ld/Branchy;->a:I
    add-int/lit8 v2, v2, 1
    sput v2, Ld/Branchy;->a:I
    goto :skip0
    :locked1
    sget v2, Ld/Branchy;->b:I
    add-int/lit8 v2, v2, 1
    sput v2, Ld/Branchy;->b:I
    goto :next1
    :locked2
    sget v2, Ld/Branchy;->c:I
    add-int/lit8 v2, v2, 1
    sput v2, Ld/Branchy;->c:I
    goto :next2
.end method
"""
    return Apk(package, "Ld/Branchy;", [assemble(text)])


PACKED_CLS = "Ld/Packed;"
PACKED_SIG = f"{PACKED_CLS}->payload()V"


def _unpack(ctx, this):
    """Packer-style tamper: flip ``payload()``'s first branch polarity,
    exposing the code path the static bytes never take."""
    units = ctx.method_code_units(PACKED_SIG)
    pos = 0
    while pos < len(units):
        ins = Instruction.decode_at(units, pos)
        if ins.name == "if-eqz":
            flipped = Instruction.make("if-nez", *ins.operands).encode()
            ctx.patch_code(PACKED_SIG, pos, flipped)
            return
        pos += ins.unit_count


register_native_library("libdet_packer",
                        {f"{PACKED_CLS}->unpack()V": _unpack})


def _packer_apk(package: str = "d.packed") -> Apk:
    """Self-modification *and* exploration in one workload: ``payload``
    runs before and after a native patch flips its guard (both sides of
    the patched site execute, à la SelfMod2), and a one-sided gate
    *inside* the patched method leaves a UCB — so replays force a
    branch in runtime-patched code, inside forked workers, over warm
    predecode state carrying the pristine bytes."""
    text = f"""
.class public {PACKED_CLS}
.super Landroid/app/Activity;
.field public static a:I = 0
.field public static b:I = 0
.field public static c:I = 0

.method public onCreate(Landroid/os/Bundle;)V
    .registers 3
    invoke-virtual {{p0}}, {PACKED_SIG}
    invoke-virtual {{p0}}, {PACKED_CLS}->unpack()V
    invoke-virtual {{p0}}, {PACKED_SIG}
    return-void
.end method

.method public payload()V
    .registers 4
    const/4 v0, 0
    if-eqz v0, :alt
    sget v1, {PACKED_CLS}->a:I
    add-int/lit8 v1, v1, 1
    sput v1, {PACKED_CLS}->a:I
    :join
    const/4 v2, 0
    if-nez v2, :locked
    :done
    return-void
    :alt
    sget v1, {PACKED_CLS}->b:I
    add-int/lit8 v1, v1, 1
    sput v1, {PACKED_CLS}->b:I
    goto :join
    :locked
    sget v1, {PACKED_CLS}->c:I
    add-int/lit8 v1, v1, 1
    sput v1, {PACKED_CLS}->c:I
    goto :done
.end method

.method public native unpack()V
.end method
"""
    return Apk(package, PACKED_CLS, [assemble(text)],
               native_libraries=["libdet_packer"])


KNOWN_CLS = "Ld/Known;"
LOOP_SIG = f"{KNOWN_CLS}->loop(I)V"


def _tamper(ctx, this, armed):
    """Self-modification inside the running frame: when armed, rewrite
    ``loop``'s ``const/4 v2, 0`` so its next iteration diverges."""
    if armed:
        ctx.patch_code(LOOP_SIG, 1, Instruction.make("const/4", 2, 1).encode())


def _boom(ctx, this, armed):
    if not armed:
        raise VmCrash("boom")


register_native_library("libdet_known", {
    f"{KNOWN_CLS}->tamper(I)V": _tamper,
    f"{KNOWN_CLS}->boom(I)V": _boom,
})


def _known_tree_apk(package: str = "d.known") -> Apk:
    """New trees that start out like known ones.  The baseline runs
    ``loop(1)``, which patches itself mid-frame (a tree with a child),
    and ``work(1)`` whole.  The replay that flips the gate runs
    ``loop(0)`` — first visits equal to that tree's root, but no child,
    so a new tree — and ``work(0)``, whose native crashes after a
    strict prefix of the known tree: another new tree."""
    text = f"""
.class public {KNOWN_CLS}
.super Landroid/app/Activity;
.field public static flag:I = 0

.method public onCreate(Landroid/os/Bundle;)V
    .registers 4
    sget v0, {KNOWN_CLS}->flag:I
    if-nez v0, :alt
    const/4 v1, 1
    invoke-virtual {{p0, v1}}, {LOOP_SIG}
    invoke-virtual {{p0, v1}}, {KNOWN_CLS}->work(I)V
    return-void
    :alt
    const/4 v1, 0
    invoke-virtual {{p0, v1}}, {LOOP_SIG}
    invoke-virtual {{p0, v1}}, {KNOWN_CLS}->work(I)V
    return-void
.end method

.method public loop(I)V
    .registers 5
    const/4 v0, 0
    :top
    const/4 v2, 0
    invoke-virtual {{p0, p1}}, {KNOWN_CLS}->tamper(I)V
    add-int/lit8 v0, v0, 1
    const/4 v1, 2
    if-lt v0, v1, :top
    return-void
.end method

.method public work(I)V
    .registers 3
    const/4 v0, 0
    invoke-virtual {{p0, p1}}, {KNOWN_CLS}->boom(I)V
    add-int/lit8 v0, v0, 1
    return-void
.end method

.method public native tamper(I)V
.end method

.method public native boom(I)V
.end method
"""
    return Apk(package, KNOWN_CLS, [assemble(text)],
               native_libraries=["libdet_known"])


def _fdroid_apk() -> Apk:
    """A generated app with the F-Droid coverage profile (gated, dead
    and handler code, no natives), as built in memory: 54 methods that
    every replay re-executes, so most trees a replay collects are ones
    the engine already holds — the merge the known-tree skip serves."""
    profile = AppProfile(gated=0.50, dead=0.08, crash=0.0, handler=0.05)
    return generate_app("d.fdroid", 900, seed=14, profile=profile).apk


def _force_library_apk() -> Apk:
    """The first app of perfbench's ``force-library`` corpus at seed 1,
    read from its bytes as that workload reveals it."""
    profile = AppProfile(gated=0.50, dead=0.08, crash=0.0, handler=0.05)
    app = generate_app("bench.force.app0", 600, seed=1000, profile=profile)
    return Apk.from_bytes(app.apk.to_bytes())


class _MergeCounter(DexLegoCollector):
    """An engine collector that counts the trees its merges are
    offered."""

    offered = 0

    def absorb(self, other: DexLegoCollector) -> None:
        self.offered += sum(len(record.trees)
                            for record in other.method_store.records.values())
        super().absorb(other)


def _ship_every_tree(monkeypatch) -> None:
    """Run every replay, in process or in a forked worker, as
    ``execute_replay(known=None)``: no known trees, so each replay
    builds and ships every tree — the reference the skip is diffed
    against.  Workers fork after this, so they inherit the patch."""
    original = replay.execute_replay

    def without_known(*args, **kwargs):
        kwargs["known"] = None
        return original(*args, **kwargs)
    monkeypatch.setattr(replay, "execute_replay", without_known)
    monkeypatch.setattr(force_execution, "execute_replay", without_known)


def _sized_files(archive: CollectionArchive) -> dict:
    """The archive's files, once its dump size, counted from the
    collector before anything rendered, is checked to be their render's
    length."""
    size = archive.total_size_bytes()
    files = archive.files()
    assert size == sum(len(files[name].encode("utf-8"))
                       for name in ALL_FILES)
    return files


def _explore(apk: Apk, backend: str, workers: int,
             collector: DexLegoCollector | None = None,
             max_paths: int | None = None, device=NEXUS_5X) -> dict:
    """One full exploration; everything observable, normalised."""
    collector = collector if collector is not None else DexLegoCollector()
    engine = ForceExecutionEngine(
        apk,
        device=device,
        collector=collector,
        max_iterations=8,
        max_paths=max_paths,
        workers=workers,
        backend=backend,
    )
    report = engine.run()
    summary = {k: v for k, v in report.to_summary().items()
               if k not in DECLARED}
    return {
        "summary": summary,
        "order": [tuple(key) for key in report.exploration_order],
        "curve": list(report.coverage_curve),
        "covered": {site for site, seen in engine.outcomes.items()
                    if len(seen) == 2},
        "collector_stats": collector.stats(),
        # The serialised collection files, byte for byte.
        "archive": _sized_files(CollectionArchive.from_collector(collector)),
    }


#: Workloads whose replays run with and without known trees: most of
#: the generated apps' trees repeat the engine's, the known-tree app's
#: new trees start like known ones, the packer's replays run patched
#: code.
_KNOWN_TREE_WORKLOADS = [(_fdroid_apk, 32), (_force_library_apk, 32),
                         (_known_tree_apk, None), (_packer_apk, None)]
_KNOWN_TREE_IDS = ["fdroid", "force-library", "known-tree", "packer"]


#: One DroidBench sample per category whose exploration replays a path.
#: Built in memory, their DEX pools are not in binary-format order and
#: do not even encode as they stand (``DexFormatError``), so process
#: workers must run on the engine's own model, not a re-read copy.
REPLAYING_SAMPLES = (
    "Direct4", "Lifecycle0", "IccExtra0", "ImplicitFlow1", "Implicit0",
    "EmulatorDetection1", "TabletOnly1", "UnreachableFlow0", "CoverageGap0",
)


class TestBackendEquivalence:
    """Serial is the reference; process must match it."""

    @pytest.mark.parametrize("sample", selfmod_samples(),
                             ids=lambda s: s.name)
    def test_selfmod_corpus_identical_across_backends(self, sample):
        # Self-modifying code is the adversarial case: replays decode
        # patched bytes and the shared decode stores carry stale copies.
        reference = _explore(sample.build_apk(), BACKEND_SERIAL, 1)
        for workers in (1, 2, 8):
            got = _explore(sample.build_apk(), BACKEND_PROCESS, workers)
            assert got == reference, (
                f"{sample.name}: process@{workers} diverged from "
                f"the serial reference"
            )

    @pytest.mark.parametrize("name", REPLAYING_SAMPLES)
    def test_droidbench_sample_identical(self, name):
        # Built in memory, as the library sees an APK: no serialisation
        # has sorted its pools before the exploration starts.
        sample = sample_by_name(name)
        reference = _explore(sample.build_apk(), BACKEND_SERIAL, 1,
                             device=sample.device)
        got = _explore(sample.build_apk(), BACKEND_PROCESS, 2,
                       device=sample.device)
        assert reference["summary"]["paths_explored"] >= 1
        assert got == reference

    @pytest.mark.parametrize("workers", [1, 2, 8])
    @pytest.mark.parametrize("backend", [BACKEND_PROCESS])
    def test_branchy_workload_identical(self, backend, workers):
        reference = _explore(_branchy_apk(), BACKEND_SERIAL, 1)
        got = _explore(_branchy_apk(), backend, workers)
        assert got == reference

    @pytest.mark.parametrize("workers", [1, 2, 8])
    @pytest.mark.parametrize("backend", [BACKEND_PROCESS])
    def test_packer_workload_identical(self, backend, workers):
        reference = _explore(_packer_apk(), BACKEND_SERIAL, 1)
        got = _explore(_packer_apk(), backend, workers)
        assert got == reference

    def test_packer_workload_actually_replays_patched_code(self):
        # Guard against vacuity: the packer workload must force the
        # gate *inside* the self-modified method via a real replay.
        reference = _explore(_packer_apk(), BACKEND_SERIAL, 1)
        assert reference["summary"]["paths_explored"] >= 1
        assert any(site[0] == PACKED_SIG for site in reference["covered"])

    @pytest.mark.parametrize("backend", [BACKEND_PROCESS])
    def test_new_trees_that_start_like_known_ones_identical(self, backend):
        reference = _explore(_known_tree_apk(), BACKEND_SERIAL, 1)
        got = _explore(_known_tree_apk(), backend, 2)
        assert got == reference
        # Not vacuous: each method kept both its trees.
        trees = json.loads(reference["archive"][BYTECODE_FILE])
        shapes = {}
        for tree in trees:
            shapes.setdefault(tree["method"], []).append(
                (len(tree["root"]["il"]), len(tree["root"]["children"])))
        assert shapes[LOOP_SIG] == [(7, 1), (7, 0)]
        assert shapes[f"{KNOWN_CLS}->work(I)V"] == [(4, 0), (2, 0)]

    @pytest.mark.parametrize("backend", [BACKEND_PROCESS])
    def test_generated_fdroid_app_identical(self, backend):
        # Serial replays skip the trees the engine holds; process
        # replays ship every tree.  Both must merge to the same bytes.
        reference = _explore(_fdroid_apk(), BACKEND_SERIAL, 1, max_paths=32)
        got = _explore(_fdroid_apk(), backend, 2, max_paths=32)
        assert got == reference

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("workload,max_paths", _KNOWN_TREE_WORKLOADS,
                             ids=_KNOWN_TREE_IDS)
    def test_process_known_trees_match_shipping_every_tree(
            self, monkeypatch, workload, max_paths, workers):
        # Forked workers inherit the engine's collector as known trees;
        # what they skip must be exactly what the merge would drop.
        got = _explore(workload(), BACKEND_PROCESS, workers,
                       max_paths=max_paths)
        _ship_every_tree(monkeypatch)
        reference = _explore(workload(), BACKEND_PROCESS, workers,
                             max_paths=max_paths)
        assert got == reference

    @pytest.mark.parametrize("workload,max_paths", _KNOWN_TREE_WORKLOADS,
                             ids=_KNOWN_TREE_IDS)
    def test_serial_known_trees_match_shipping_every_tree(
            self, monkeypatch, workload, max_paths):
        # Serial replays read the engine's collector live: the frames
        # they drop at exit and the classes they skip must be exactly
        # what the merge would drop.
        got = _explore(workload(), BACKEND_SERIAL, 1, max_paths=max_paths)
        _ship_every_tree(monkeypatch)
        reference = _explore(workload(), BACKEND_SERIAL, 1,
                             max_paths=max_paths)
        assert got == reference

    def test_generated_fdroid_app_merges_mostly_duplicates(self,
                                                           monkeypatch):
        # Guard against vacuity: replays ran over at least two waves,
        # and most trees a replay with no known trees ships are
        # duplicates — exactly what serial and forked replays skip.
        serial, forked = _MergeCounter(), _MergeCounter()
        _explore(_fdroid_apk(), BACKEND_SERIAL, 1,
                 collector=serial, max_paths=32)
        _explore(_fdroid_apk(), BACKEND_PROCESS, 2,
                 collector=forked, max_paths=32)
        shipped = _MergeCounter()
        _ship_every_tree(monkeypatch)
        result = _explore(_fdroid_apk(), BACKEND_PROCESS, 2,
                          collector=shipped, max_paths=32)
        summary = result["summary"]
        assert summary["iterations"] >= 2
        assert summary["paths_explored"] == 32
        kept = result["collector_stats"]["unique_trees"]
        assert shipped.offered > 2 * kept
        assert kept <= serial.offered < shipped.offered
        assert kept <= forked.offered < shipped.offered

    def test_exploration_order_is_meaningful(self):
        # Guard against the suite passing vacuously: the branchy
        # workload must actually replay multiple paths.
        reference = _explore(_branchy_apk(), BACKEND_SERIAL, 1)
        assert len(reference["order"]) >= 3
        assert reference["summary"]["runs"] >= 4  # baseline + replays
        assert len(reference["covered"]) >= 3


def _collect_payloads(apk_factory, tmp_path, **knobs) -> dict:
    """Backend -> the whole archive CollectStage writes: every
    collection file and the exploration state, to match byte for
    byte."""
    payloads = {}
    for backend in EXPLORE_BACKENDS:
        config = RevealConfig(
            use_force_execution=True,
            explore_workers=2,
            explore_backend=backend,
            archive_dir=str(tmp_path / backend),
            **knobs,
        )
        result = CollectStage(config).run(apk_factory())
        payloads[backend] = result.archive.files()
    return payloads


class TestPipelineEquivalence:
    """The same contract through CollectStage, archive included."""

    def test_collect_stage_archive_identical(self, tmp_path):
        payloads = _collect_payloads(_branchy_apk, tmp_path,
                                     force_iterations=8)
        assert payloads[BACKEND_PROCESS] == payloads[BACKEND_SERIAL]

    def test_collect_stage_droidbench_archive_identical(self, tmp_path):
        sample = sample_by_name("IccExtra0")
        payloads = _collect_payloads(sample.build_apk, tmp_path,
                                     device=sample.device)
        assert payloads[BACKEND_PROCESS] == payloads[BACKEND_SERIAL]

    def test_config_hash_feeds_backend(self):
        base = RevealConfig()
        assert base.explore_backend == BACKEND_SERIAL
        assert EXPLORE_BACKENDS == (BACKEND_SERIAL, BACKEND_PROCESS)
        hashes = {RevealConfig(explore_backend=b).config_hash()
                  for b in EXPLORE_BACKENDS}
        assert len(hashes) == len(EXPLORE_BACKENDS)

    def test_unknown_backend_rejected(self):
        for backend in ("gpu", "thread"):
            with pytest.raises(ValueError, match="explore_backend"):
                RevealConfig(explore_backend=backend)
            with pytest.raises(ValueError, match="backend"):
                ForceExecutionEngine(_branchy_apk(), backend=backend)


# -- resume merge ------------------------------------------------------------


def _json_merged(base: CollectionArchive,
                 update: CollectionArchive) -> dict:
    """Resume's merge as it was written over the collection files' JSON
    before it became the collector's own ``absorb``: the same union
    rules, with JSON equality as tree identity and one flat tree list.
    Kept as the reference :meth:`CollectionArchive.merged` is diffed
    against; it reads and returns file texts only."""
    def rows(archive, name):
        return json.loads(archive.files()[name])

    base_classes = {e["descriptor"]: e for e in rows(base, CLASS_DATA_FILE)}
    new_classes = {e["descriptor"]: e
                   for e in rows(update, CLASS_DATA_FILE)}
    merged_classes = []
    for desc in list(base_classes) + \
            [d for d in new_classes if d not in base_classes]:
        old = base_classes.get(desc)
        new = new_classes.get(desc)
        if old is None or new is None:
            merged_classes.append(old or new)
            continue
        entry = dict(new)
        entry["initialized"] = old["initialized"] or new["initialized"]
        known_methods = set(new["methods"])
        entry["methods"] = list(new["methods"]) + [
            m for m in old["methods"] if m not in known_methods
        ]
        merged_classes.append(entry)

    def initialized_side(desc: str) -> str:
        old = base_classes.get(desc)
        new = new_classes.get(desc)
        if new is not None and new["initialized"]:
            return "update"
        if old is not None and old["initialized"]:
            return "base"
        return "update" if new is not None else "base"

    def merge_keyed(name, key_of):
        chosen = {}
        order = []
        for origin, archive in (("base", base), ("update", update)):
            for entry in rows(archive, name):
                key = key_of(entry)
                if key not in chosen:
                    order.append(key)
                    chosen[key] = entry
                elif origin == initialized_side(entry["class"]):
                    chosen[key] = entry
        return [chosen[key] for key in order]

    fields = merge_keyed(FIELD_DATA_FILE, lambda e: (e["class"], e["name"]))
    statics = merge_keyed(STATIC_VALUES_FILE,
                          lambda e: (e["class"], e["field"]))
    methods = {}
    for entry in rows(base, METHOD_DATA_FILE) + \
            rows(update, METHOD_DATA_FILE):
        methods[entry["signature"]] = entry
    seen_trees = set()
    bytecode = []
    for tree in rows(base, BYTECODE_FILE) + rows(update, BYTECODE_FILE):
        digest = json.dumps(tree, sort_keys=True)
        if digest not in seen_trees:
            seen_trees.add(digest)
            bytecode.append(tree)
    reflection_sites = {}
    for entry in rows(base, REFLECTION_FILE) + rows(update, REFLECTION_FILE):
        key = (entry["caller"], entry["dex_pc"])
        site = reflection_sites.get(key)
        if site is None:
            reflection_sites[key] = {
                "caller": entry["caller"],
                "dex_pc": entry["dex_pc"],
                "targets": list(entry["targets"]),
            }
        else:
            known = {t["signature"] for t in site["targets"]}
            site["targets"].extend(
                t for t in entry["targets"] if t["signature"] not in known
            )
    files = {
        CLASS_DATA_FILE: json.dumps(merged_classes, indent=1),
        FIELD_DATA_FILE: json.dumps(fields, indent=1),
        METHOD_DATA_FILE: json.dumps(list(methods.values()), indent=1),
        STATIC_VALUES_FILE: json.dumps(statics, indent=1),
        BYTECODE_FILE: json.dumps(bytecode, indent=1),
        REFLECTION_FILE: json.dumps(list(reflection_sites.values()),
                                    indent=1),
    }
    if EXPLORATION_STATE_FILE in update.files():
        files[EXPLORATION_STATE_FILE] = \
            update.files()[EXPLORATION_STATE_FILE]
    return files


def _resume_pair(apk: Apk, then: int, device=NEXUS_5X):
    """A collect at ``max_paths=1``, then a session resumed from its
    exploration state with ``then`` more paths: the two archives a
    resumed reveal merges."""
    config = RevealConfig(use_force_execution=True, max_paths=1,
                          device=device)
    base = CollectStage(config).run(apk).archive
    session = CollectStage(config.replace(max_paths=then)).run(
        apk, resume_state=base.exploration_state())
    return base, session.archive


def _trees_by_method(files: dict) -> dict:
    trees = {}
    for tree in json.loads(files[BYTECODE_FILE]):
        trees.setdefault(tree["method"], []).append(tree)
    return trees


def _assert_merges_agree(base: CollectionArchive,
                         update: CollectionArchive) -> CollectionArchive:
    """``merged`` against the JSON reference: every file but
    ``bytecode.json`` byte for byte, the same trees in the same order
    within each method, and the same reassembled DEX."""
    got = CollectionArchive.merged(base, update)
    _sized_files(got)
    want = _json_merged(base, update)
    assert set(got.files()) == set(want)
    for name, text in want.items():
        if name != BYTECODE_FILE:
            assert got.files()[name] == text, name
    assert _trees_by_method(got.files()) == _trees_by_method(want)
    got_dex, _ = ReassembleStage().run(got)
    want_dex, _ = ReassembleStage().run(CollectionArchive.from_files(want))
    assert write_dex(got_dex) == write_dex(want_dex)
    return got


LAZY_CLS = "Ld/Lazy;"


def _lazy_apk() -> Apk:
    """Three gates whose forced sides split state across sessions: one
    initializes ``InitA``, one ``InitB`` (each carries a static value),
    and one swaps the name a reflective call resolves.  Whichever gate
    the first session's single replay forces, the resumed session
    forces the others."""
    main = f"""
.class public {LAZY_CLS}
.super Landroid/app/Activity;

.method public onCreate(Landroid/os/Bundle;)V
    .registers 8
    const-class v1, Ld/InitA;
    const-class v1, Ld/InitB;
    const/4 v0, 0
    if-nez v0, :gate_a
    :after_a
    const/4 v0, 0
    if-nez v0, :gate_b
    :after_b
    const-string v2, "hit"
    const/4 v0, 0
    if-nez v0, :gate_name
    :call
    invoke-virtual {{p0}}, Ljava/lang/Object;->getClass()Ljava/lang/Class;
    move-result-object v1
    invoke-virtual {{v1, v2}}, Ljava/lang/Class;->getMethod(Ljava/lang/String;)Ljava/lang/reflect/Method;
    move-result-object v1
    const/4 v3, 0
    new-array v4, v3, [Ljava/lang/Object;
    invoke-virtual {{v1, p0, v4}}, Ljava/lang/reflect/Method;->invoke(Ljava/lang/Object;[Ljava/lang/Object;)Ljava/lang/Object;
    return-void
    :gate_a
    sget v1, Ld/InitA;->n:I
    goto :after_a
    :gate_b
    sget v1, Ld/InitB;->n:I
    goto :after_b
    :gate_name
    const-string v2, "miss"
    goto :call
.end method

.method public hit()V
    .registers 1
    return-void
.end method

.method public miss()V
    .registers 1
    return-void
.end method
"""
    holders = [f"""
.class public Ld/Init{name};
.super Ljava/lang/Object;
.field public static n:I = {value}
""" for name, value in (("A", 7), ("B", 9))]
    return multi_class_apk("d.lazy", LAZY_CLS, [main] + holders)


#: The DroidBench categories whose collection is the hardest to merge:
#: self-modifying code, dynamically loaded code and reflective calls.
RESUME_SAMPLES = tuple(
    s.name for s in selfmod_samples() + dynload.samples()
    + reflection.samples())


class TestResumeMerge:
    """Resume merges with the collector's ``absorb``; the old JSON
    merge is the reference."""

    def test_branchy_app(self):
        apk = _branchy_apk("d.resume")
        base, update = _resume_pair(apk, then=32)
        merged = _assert_merges_agree(base, update)
        # Not vacuous: each side holds trees the other lacks.
        kept = sum(map(len, _trees_by_method(merged.files()).values()))
        assert kept > sum(map(len, _trees_by_method(base.files()).values()))
        assert kept > sum(map(len,
                              _trees_by_method(update.files()).values()))

    def test_class_init_and_reflection_split_across_sessions(self):
        base, update = _resume_pair(_lazy_apk(), then=32)
        merged = _assert_merges_agree(base, update)

        def initialized(archive):
            return {c["descriptor"]
                    for c in json.loads(archive.files()[CLASS_DATA_FILE])
                    if c["initialized"]}

        # Not vacuous: each session initialized a class the other did
        # not, and the reflective site resolved a different target.
        assert initialized(base) ^ initialized(update) == \
            {"Ld/InitA;", "Ld/InitB;"}
        assert initialized(merged) >= {"Ld/InitA;", "Ld/InitB;"}
        sites = json.loads(merged.files()[REFLECTION_FILE])
        assert [len(site["targets"]) for site in sites] == [2]

    def test_self_merge_keeps_every_file(self):
        base, _ = _resume_pair(_branchy_apk("d.self"), then=1)
        merged = _assert_merges_agree(base, base)
        assert merged.files() == base.files()

    @pytest.mark.parametrize("seed", [1, 4409])
    def test_generated_fdroid_app(self, seed):
        profile = AppProfile(gated=0.50, dead=0.08, crash=0.0, handler=0.05)
        apk = generate_app(f"d.resume{seed}", 1500, seed=seed,
                           profile=profile).apk
        _assert_merges_agree(*_resume_pair(apk, then=32))

    @pytest.mark.parametrize("name", RESUME_SAMPLES)
    def test_droidbench_sample(self, name):
        sample = sample_by_name(name)
        _assert_merges_agree(*_resume_pair(sample.build_apk(), then=8,
                                           device=sample.device))


# -- offline boundary --------------------------------------------------------


def _assert_offline_boundary(apk_factory, config: RevealConfig,
                             tmp_path) -> None:
    """The in-process reveal (reassembly reads the live collector) and
    ``reveal_from_archive`` over its archive saved to disk give the same
    reassembled DEX and revealed APK, and the files parse back into an
    archive that renders the same texts."""
    live = Pipeline(config).run(apk_factory())
    _assert_files_carry(live, apk_factory, tmp_path)


def _assert_files_carry(live, apk_factory, tmp_path) -> None:
    files = _sized_files(live.archive)
    directory = str(tmp_path / "archive")
    live.archive.save(directory)
    offline = reveal_from_archive(directory, apk=apk_factory())
    assert write_dex(offline.reassembled_dex) == \
        write_dex(live.reassembled_dex)
    assert offline.revealed_apk.to_bytes() == live.revealed_apk.to_bytes()
    assert CollectionArchive.from_files(files).files() == files


def _fdroid_profile_app(seed: int, size: int):
    profile = AppProfile(gated=0.50, dead=0.08, crash=0.0, handler=0.05)
    return generate_app(f"d.offline{seed}.s{size}", size, seed=seed,
                        profile=profile).apk


def _first_sample_per_category() -> tuple:
    first = {}
    for sample in droidbench_samples():
        first.setdefault(sample.category, sample.name)
    return tuple(first.values())


class TestOfflineBoundary:
    """Reassembly reads only what the collection files carry."""

    @pytest.mark.parametrize("seed", [1, 4409])
    @pytest.mark.parametrize("size", [1000, 6000, 15000])
    def test_generated_fdroid_app(self, seed, size, tmp_path):
        _assert_offline_boundary(lambda: _fdroid_profile_app(seed, size),
                                 RevealConfig(), tmp_path)

    @pytest.mark.parametrize("name", _first_sample_per_category())
    def test_droidbench_sample_with_force_execution(self, name, tmp_path):
        sample = sample_by_name(name)
        config = RevealConfig(use_force_execution=True, max_paths=8,
                              device=sample.device)
        _assert_offline_boundary(sample.build_apk, config, tmp_path)

    @pytest.mark.parametrize("package",
                             [spec[0] for spec in MARKET_APP_SPECS])
    def test_packed_market_app(self, package, tmp_path):
        _assert_offline_boundary(lambda: build_market_app(package).packed_apk,
                                 RevealConfig(), tmp_path)

    def test_resumed_reveal(self, tmp_path):
        config = RevealConfig(use_force_execution=True, max_paths=1)
        base = CollectStage(config).run(_branchy_apk("d.offres")).archive
        live = resume_exploration(base, _branchy_apk("d.offres"),
                                  config=config.replace(max_paths=32))
        assert live.archive.collector is not base.collector
        _assert_files_carry(live, lambda: _branchy_apk("d.offres"), tmp_path)


# -- front ends and repack ---------------------------------------------------


def _cloned_repack(apk: Apk, dex) -> Apk:
    """The repack ``RepackStage`` replaced: serialise the input APK, read
    it back and swap the reassembled DEX in."""
    revealed = apk.clone()
    revealed.dex_files = [dex]
    return revealed


def _assert_front_ends_agree(apk_factory, device=NEXUS_5X) -> None:
    """``reveal_apk`` and the service's ``reveal_one``, each over a fresh
    APK, reveal the same bytes; the revealed APK is what the
    serialise-and-reread repack built, and shares no list or dict with
    its input."""
    apk = apk_factory()
    library = reveal_apk(apk, RevealConfig(device=device))
    service = BatchRevealService().reveal_one(
        RevealJob("front-end", apk_factory(), device=device))
    revealed = library.revealed_apk
    assert service.revealed_apk.to_bytes() == revealed.to_bytes()
    _sized_files(library.archive)

    reference = _cloned_repack(apk, library.reassembled_dex)
    assert revealed.to_bytes() == reference.to_bytes()
    assert vars(revealed) == vars(reference)
    assert revealed.primary_dex is library.reassembled_dex
    for name, value in vars(apk).items():
        if isinstance(value, (list, dict)):
            assert getattr(revealed, name) is not value, name


class TestFrontEndsAndRepack:
    """The library and the service reveal the same bytes, and repack
    copies the input without re-serialising it."""

    @pytest.mark.parametrize("name", _first_sample_per_category())
    def test_droidbench_sample(self, name):
        sample = sample_by_name(name)
        _assert_front_ends_agree(sample.build_apk, sample.device)

    @pytest.mark.parametrize("package",
                             [spec[0] for spec in MARKET_APP_SPECS])
    def test_packed_market_app(self, package):
        _assert_front_ends_agree(
            lambda: build_market_app(package).packed_apk)

    def test_generated_fdroid_app(self):
        _assert_front_ends_agree(lambda: _fdroid_profile_app(1, 6000))


# -- shared boot classpath ---------------------------------------------------


def _per_runtime_boot(mp) -> None:
    """The runtime before the boot classpath was shared: each runtime
    builds its own framework specs, and each method keeps a copy of its
    DEX body as ``loaded_code``.  Forked replay workers inherit it."""
    def fresh_boot_classes(runtime) -> None:
        for spec in (*intrinsics.all_specs(), *reflection_api.all_specs(),
                     *android_api.all_specs()):
            runtime.class_linker.register_boot_class(spec)

    init = RuntimeMethod.__init__

    def copying_init(self, declaring_class, ref, access_flags, code=None,
                     native_impl=None) -> None:
        init(self, declaring_class, ref, access_flags, code, native_impl)
        self.loaded_code = code.copy() if code is not None else None

    mp.setattr(art, "register_boot_classes", fresh_boot_classes)
    mp.setattr(RuntimeMethod, "__init__", copying_init)


def _force_reveal_bytes(apk_factory, device, backend: str) -> dict:
    workers = 2 if backend == BACKEND_PROCESS else 1
    config = RevealConfig(use_force_execution=True, max_paths=32,
                          device=device, explore_backend=backend,
                          explore_workers=workers)
    result = reveal_apk(apk_factory(), config=config)
    return {**result.archive.files(),
            "revealed.apk": result.revealed_apk.to_bytes()}


def _unpack_bytes(apk_factory, device) -> dict:
    out = {}
    for tool in (DexHunterLike, AppSpearLike):
        result = tool(device).unpack(apk_factory())
        out[tool.name] = (write_dex(result.dumped_dex),
                          result.unpacked_apk.to_bytes())
    return out


def _assert_matches_per_runtime_boot(measure) -> None:
    shared = measure()
    with pytest.MonkeyPatch.context() as mp:
        _per_runtime_boot(mp)
        reference = measure()
    assert shared.keys() == reference.keys()
    for name in shared:
        assert shared[name] == reference[name], name


_SHARED_BOOT_SAMPLES = tuple(
    sample.name for sample in droidbench_samples()
    if sample.category in ("selfmod", "reflection", "dynload")
)


class TestSharedBootClasspath:
    """One read-only boot classpath per process, and one body copy per
    method, change no output byte."""

    @pytest.mark.parametrize("backend", EXPLORE_BACKENDS)
    @pytest.mark.parametrize("name", _SHARED_BOOT_SAMPLES)
    def test_droidbench_force_reveal(self, name, backend):
        sample = sample_by_name(name)
        _assert_matches_per_runtime_boot(
            lambda: _force_reveal_bytes(sample.build_apk, sample.device,
                                        backend))

    @pytest.mark.parametrize("backend", EXPLORE_BACKENDS)
    @pytest.mark.parametrize("seed", [1, 4409])
    def test_generated_fdroid_force_reveal(self, seed, backend):
        _assert_matches_per_runtime_boot(
            lambda: _force_reveal_bytes(
                lambda: _fdroid_profile_app(seed, 1000), NEXUS_5X, backend))

    @pytest.mark.parametrize("sample", selfmod_samples(),
                             ids=lambda s: s.name)
    def test_selfmod_unpacks(self, sample):
        _assert_matches_per_runtime_boot(
            lambda: _unpack_bytes(sample.build_apk, sample.device))
