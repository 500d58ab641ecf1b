"""A replay collector (one built with known trees) against the plain
collector it must merge like.

A force-execution replay's collector logs each frame's first visits
while the frame's code array holds still and decides the frame at
method exit; it also skips recording classes the known collector holds
with every method they declare.  Each case here drives the same frames
through a collector built with known trees and through one built
without, merges each into a copy of the known collector with
``absorb`` (as the engine does), and checks that both merges give the
same rows: the replay collector may skip only what the merge would
drop.  Frames are driven hook by hook, each step decoded from the
frame's live array as the interpreter fetches it, so a case can patch
the code at any step.

:class:`TestSymbolsAtExit` checks the one thing a log defers: each
symbol resolved at method exit equals the symbol a listener resolved at
the step, over the self-modifying, reflection and dynamic-loading
DroidBench samples and the packed market apps, with force execution.
"""

import json
import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.benchsuite import build_market_app, sample_by_name
from repro.benchsuite.categories import dynload, reflection, selfmod
from repro.benchsuite.market_apps import MARKET_APP_SPECS
from repro.core import (
    BACKEND_PROCESS,
    BACKEND_SERIAL,
    RevealConfig,
    force_execution,
    replay,
    reveal_apk,
)
from repro.core.collector import DexLegoCollector
from repro.dex import assemble
from repro.dex.instructions import Instruction
from repro.dex.structures import DexFile, FieldRef, MethodRef
from repro.runtime import AndroidRuntime, Apk
from repro.runtime.frames import Frame
from repro.runtime.hooks import RuntimeListener

_CLS = "Lt/Log;"
_SIG = f"{_CLS}->m(I)V"


def _smali(literal: str = "zz-one", static: int = 7,
           extra: str = "") -> str:
    return f"""
.class public {_CLS}
.super Ljava/lang/Object;
.field public static s:I = {static}

.method public static m(I)V
    .registers 3
    const-string v0, "{literal}"
    const/4 v1, 0
    packed-switch p0, :table
    :a
    const/4 v1, 1
    :b
    add-int/lit8 v1, v1, 1
    return-void
    :table
    .packed-switch 0
        :a
        :b
    .end packed-switch
.end method
{extra}
"""


_EXTRA_METHOD = """
.method public static n()V
    .registers 1
    return-void
.end method
"""


class _App:
    """One runtime with the test class linked, ``collector`` attached."""

    def __init__(self, collector: DexLegoCollector, **smali) -> None:
        self.collector = collector
        self.runtime = AndroidRuntime()
        self.runtime.add_listener(collector)
        self.dex = assemble(_smali(**smali))
        self.runtime.install_apk(Apk("t.log", _CLS, [self.dex]))
        self.klass = self.runtime.class_linker.lookup(_CLS)
        self.method = self.klass.find_method("m", ("I",), "V")
        # name -> pc, by the first instruction with that mnemonic.
        self.pc = {}
        for pc, ins in self.method.code.instructions():
            self.pc.setdefault(ins.name, pc)
        self.payload_pc = self.pc["packed-switch"] + Instruction.decode_at(
            self.method.code.insns, self.pc["packed-switch"]).branch_target

    def run(self, steps, patches=None) -> None:
        """One frame of ``m``: ``steps`` are mnemonics (or pcs), each
        decoded from the live array at its step; ``patches[i](app)``
        runs before step ``i``."""
        patches = patches or {}
        frame = Frame(self.method, [0])
        self.collector.on_method_enter(frame)
        for i, step in enumerate(steps):
            if i in patches:
                patches[i](self)
            pc = self.pc[step] if isinstance(step, str) else step
            self.collector.on_instruction(
                frame, pc, Instruction.decode_at(frame.code.insns, pc))
        self.collector.on_method_exit(frame, None)

    # -- patches, as a self-modifying native makes them ------------------

    def set_const(self, value: int) -> None:
        """Rewrite ``const/4 v1, 0`` in place."""
        pc = self.pc["const/4"]
        self.method.code.insns[pc:pc + 1] = \
            Instruction.make("const/4", 1, value).encode()

    def set_payload(self, target: int) -> None:
        """Rewrite the switch table's first branch target."""
        self.method.code.insns[self.payload_pc + 4] = target

    def replace_insns(self) -> None:
        """Swap in a new array (as ``code.insns = ...`` does) holding
        the same code but ``const/4 v1, 2``."""
        units = list(self.method.code.insns)
        pc = self.pc["const/4"]
        units[pc:pc + 1] = Instruction.make("const/4", 1, 2).encode()
        self.method.code.insns = units


#: One ordinary run: the switch and the add repeat, then it returns.
_BASE = ["const-string", "const/4", "packed-switch", "add-int/lit8",
         "const/4", "packed-switch", "add-int/lit8", "return-void"]


def _known(*frames, **smali) -> DexLegoCollector:
    """A collector holding the trees of ``frames`` (the engine's)."""
    app = _App(DexLegoCollector(), **smali)
    for steps in frames:
        app.run(steps)
    return app.collector


def _collect(known, frames, patches=None, before=None, **smali):
    """``frames`` through a replay collector (with ``known``) and a
    plain one, each on its own runtime: both collectors."""
    out = []
    for collector in (DexLegoCollector(known), DexLegoCollector()):
        app = _App(collector, **smali)
        if before is not None:
            before(app)
        for steps in frames:
            app.run(steps, patches)
        out.append(collector)
    return out


def _merged(known: DexLegoCollector, replay: DexLegoCollector) -> dict:
    engine = DexLegoCollector.from_rows(known.rows())
    engine.absorb(replay)
    return {**engine.rows(), "observed": engine.instructions_observed}


def _assert_merges_alike(known, replay, reference) -> None:
    assert _merged(known, replay) == _merged(known, reference)


def _trees(collector: DexLegoCollector) -> list[dict]:
    return [tree.to_dict() for tree in collector.trees()]


class TestExitDecision:
    def test_an_exact_repeat_keeps_nothing(self):
        known = _known(_BASE)
        replay, reference = _collect(known, [_BASE, _BASE[:1] + _BASE])
        assert _trees(replay) == []
        assert len(_trees(reference)) == 1
        # The class is known with its one method: nothing recorded.
        assert replay.classes == {} and len(replay.method_store) == 0
        assert replay.instructions_observed == 2 * len(_BASE) + 1
        _assert_merges_alike(known, replay, reference)

    def test_an_early_exit_is_new(self):
        known = _known(_BASE)
        replay, reference = _collect(known, [_BASE[:3]])
        (tree,) = _trees(replay)
        assert tree["root"]["il"] == _trees(known)[0]["root"]["il"][:3]
        assert _trees(replay) == _trees(reference)
        _assert_merges_alike(known, replay, reference)

    def test_an_extension_is_new(self):
        known = _known(_BASE[:4])
        replay, reference = _collect(known, [_BASE])
        assert len(_trees(replay)) == 1
        assert _trees(replay) == _trees(reference)
        _assert_merges_alike(known, replay, reference)

    def test_an_out_of_order_first_visit_is_new(self):
        known = _known(_BASE)
        reordered = ["const-string", "packed-switch", "const/4",
                     "add-int/lit8", "return-void"]
        replay, reference = _collect(known, [reordered])
        assert len(_trees(replay)) == 1
        assert _trees(replay) == _trees(reference)
        _assert_merges_alike(known, replay, reference)

    def test_a_changed_payload_is_new(self):
        # The table was rewritten before the frame entered: same units
        # at every pc, another payload snapshot.
        known = _known(_BASE)
        replay, reference = _collect(
            known, [_BASE], before=lambda app: app.set_payload(5))
        (tree,) = _trees(replay)
        switch = tree["root"]["il"][2]
        assert switch["payload"][4] == 5
        assert _trees(replay) == _trees(reference)
        _assert_merges_alike(known, replay, reference)

    def test_a_choice_between_two_candidate_trees(self):
        # Two known trees share their first two visits; a frame that
        # repeats either keeps nothing, one that repeats neither is new.
        other = ["const-string", "const/4", "return-void"]
        known = _known(_BASE, other)
        assert len(known.method_store.get(_SIG).trees) == 2
        replay, reference = _collect(known, [other, _BASE, other[:2]])
        (tree,) = _trees(replay)
        assert len(tree["root"]["il"]) == 2
        _assert_merges_alike(known, replay, reference)

    def test_a_frame_that_enters_a_patched_array(self):
        # The array was patched (its generation moved) before entry: the
        # log holds the live units, and a known tree of the patched code
        # is a repeat while one of the original code is not.
        original = _known(_BASE)
        patched = _App(DexLegoCollector())
        patched.set_const(1)
        patched.run(_BASE)
        for known, kept in ((patched.collector, 0), (original, 1)):
            replay, reference = _collect(
                known, [_BASE], before=lambda app: app.set_const(1))
            assert len(_trees(replay)) == kept
            if kept:
                const = _trees(replay)[0]["root"]["il"][1]
                assert const["units"] == list(
                    Instruction.make("const/4", 1, 1).encode())
            _assert_merges_alike(known, replay, reference)

    def test_symbols_resolve_against_the_frames_own_dex(self):
        # The known tree was collected from a DEX whose pool holds
        # another literal at the same index: the units are equal, the
        # symbols are not.
        known = _known(_BASE, literal="zz-one")
        replay, reference = _collect(known, [_BASE[:3]], literal="zz-two")
        (tree,) = _trees(replay)
        known_tree = known.method_store.get(_SIG).trees[0].to_dict()
        assert tree["root"]["il"][0]["units"] == \
            known_tree["root"]["il"][0]["units"]
        assert known_tree["root"]["il"][0]["symbol"] == "zz-one"
        assert tree["root"]["il"][0]["symbol"] == "zz-two"
        assert _trees(replay) == _trees(reference)
        _assert_merges_alike(known, replay, reference)


class TestCodeChangedMidFrame:
    def test_a_patch_after_k_first_visits(self):
        # Three first visits, then a native rewrites a visited pc and the
        # frame runs it again: the prefix keeps its pre-patch units and
        # the rewritten instruction is a divergence child.
        known = _known(_BASE)
        frame = ["const-string", "const/4", "packed-switch", "const/4",
                 "add-int/lit8", "return-void"]
        replay, reference = _collect(
            known, [frame], patches={3: lambda app: app.set_const(1)})
        (tree,) = _trees(replay)
        root = tree["root"]
        assert root["il"][1]["units"] == list(
            Instruction.make("const/4", 1, 0).encode())
        (child,) = root["children"]
        assert child["il"][0]["units"] == list(
            Instruction.make("const/4", 1, 1).encode())
        assert _trees(replay) == _trees(reference)
        _assert_merges_alike(known, replay, reference)

    def test_a_patch_of_an_already_visited_payload(self):
        # The switch ran, then its table was rewritten and it ran again:
        # Algorithm 1 keeps the payload of its first visit, so the frame
        # repeats a known tree of the unpatched code.
        patch = {5: lambda app: app.set_payload(5)}
        for known, kept in ((_known(_BASE), 0), (_known(_BASE[:3]), 1)):
            replay, reference = _collect(known, [_BASE], patches=patch)
            assert len(_trees(replay)) == kept
            (tree,) = _trees(reference)
            switch = tree["root"]["il"][2]
            assert switch["payload"] == \
                _trees(known)[0]["root"]["il"][2]["payload"]
            assert switch["payload"][4] != 5 and not tree["root"]["children"]
            _assert_merges_alike(known, replay, reference)
            if kept:
                assert _trees(replay) == _trees(reference)

    def test_a_wholesale_insns_replacement(self):
        # A new array, same generation number as the old one had: only
        # its identity tells the collector the code changed.
        known = _known(_BASE)
        replay, reference = _collect(
            known, [_BASE], patches={4: lambda app: app.replace_insns()})
        (tree,) = _trees(replay)
        (child,) = tree["root"]["children"]
        assert child["il"][0]["units"] == list(
            Instruction.make("const/4", 1, 2).encode())
        assert _trees(replay) == _trees(reference)
        _assert_merges_alike(known, replay, reference)

    def test_a_known_divergent_tree_is_not_kept_again(self):
        frame = ["const-string", "const/4", "packed-switch", "const/4",
                 "add-int/lit8", "return-void"]
        patch = {3: lambda app: app.set_const(1)}
        app = _App(DexLegoCollector())
        app.run(frame, patch)
        known = app.collector
        replay, reference = _collect(known, [frame], patches=patch)
        assert _trees(replay) == []
        assert len(_trees(reference)) == 1
        _assert_merges_alike(known, replay, reference)


class TestClassSkip:
    def test_a_known_class_is_not_recorded(self):
        known = _known(_BASE)
        replay, reference = _collect(known, [])
        assert replay.classes == {} and len(replay.method_store) == 0
        assert _CLS in reference.classes
        _assert_merges_alike(known, replay, reference)

    def test_a_class_with_an_extra_method_is_recorded_in_full(self):
        known = _known(_BASE)
        replay, reference = _collect(known, [_BASE[:2]],
                                     extra=_EXTRA_METHOD)
        assert replay.classes[_CLS].method_signatures == \
            reference.classes[_CLS].method_signatures
        assert f"{_CLS}->n()V" in replay.classes[_CLS].method_signatures
        assert replay.rows() == reference.rows()
        _assert_merges_alike(known, replay, reference)

    def test_a_skipped_class_initialised_in_the_replay(self):
        # Known before initialisation; the replay initialises a copy
        # whose default differs: absorb must see its static values.
        known = _known(_BASE)
        replay, reference = _collect(
            known, [], static=9,
            before=lambda app: app.runtime.class_linker.ensure_initialized(
                app.klass))
        assert len(replay.method_store) == 0
        collected = replay.classes[_CLS]
        assert collected.initialized
        assert [f.static_value for f in collected.fields] == [("int", 9)]
        merged = _merged(known, replay)
        assert merged == _merged(known, reference)
        assert merged["static_values.json"][0]["value"] == ["int", 9]

    def test_a_second_definition_after_a_skipped_one(self):
        # One descriptor linked twice, as two loaded DEX files define
        # it: the first is known and skipped, the second declares one
        # more method.  The class row stays the first definition's, the
        # new method's record is kept.
        known = _known(_BASE)
        first = _App(DexLegoCollector()).klass
        second = _App(DexLegoCollector(), extra=_EXTRA_METHOD).klass
        replay, reference = DexLegoCollector(known), DexLegoCollector()
        for collector in (replay, reference):
            collector.on_class_loaded(first)
            collector.on_class_loaded(second)
        assert replay.classes[_CLS].method_signatures == [_SIG]
        assert replay.method_store.get(f"{_CLS}->n()V") is not None
        _assert_merges_alike(known, replay, reference)

    def test_a_tree_of_a_skipped_class_gets_the_known_metadata(self):
        known = _known(_BASE)
        replay, reference = _collect(known, [_BASE[:2]])
        assert replay.classes == {}
        record = replay.method_store.get(_SIG)
        assert record.to_dict() == known.method_store.get(_SIG).to_dict()
        assert len(record.trees) == 1
        _assert_merges_alike(known, replay, reference)


_STRINGS = st.text(alphabet="abcLt/;", min_size=1, max_size=6)
_DESCS = st.sampled_from(["I", "V", "Lt/A;", "Lt/B;", "[I", "Lx/Y;"])
_INTERNS = st.one_of(
    st.tuples(st.just("string"), _STRINGS),
    st.tuples(st.just("type"), _DESCS),
    st.tuples(st.just("field"), st.tuples(_DESCS, _STRINGS, _DESCS)),
    st.tuples(st.just("method"),
              st.tuples(_DESCS, _STRINGS, _DESCS,
                        st.lists(_DESCS, max_size=2))),
)


class TestPoolIndicesStable:
    """A symbol resolved at method exit equals the one resolved at its
    step only because a DEX's pools grow by appending: interning never
    moves an index already handed out."""

    @given(st.lists(_INTERNS, min_size=2, max_size=25),
           st.lists(_INTERNS, max_size=25))
    def test_interning_never_moves_an_index(self, loaded, ops):
        # ``loaded`` stands for the pools a DEX was read with, ``ops``
        # for what natives intern while it runs.
        dex = DexFile()
        resolve = {"string": dex.string, "type": dex.type_descriptor,
                   "field": dex.field_ref, "method": dex.method_ref}
        handed: dict = {}
        for kind, value in loaded + ops:
            if kind == "string":
                index, expected = dex.intern_string(value), value
            elif kind == "type":
                index, expected = dex.intern_type(value), value
            elif kind == "field":
                expected = FieldRef(*value)
                index = dex.intern_field_ref(expected)
            else:
                class_desc, name, ret, params = value
                expected = MethodRef(class_desc, name, tuple(params), ret)
                index = dex.intern_method_ref(expected)
            assert handed.setdefault((kind, index), expected) == expected
            for (k, i), held in handed.items():
                assert resolve[k](i) == held


# -- symbols resolved at exit, against symbols resolved at the step --------


class _StepSymbols(RuntimeListener):
    """Resolves every application step's symbol at that step, as the
    streaming collector did, and appends what it saw to ``path`` (one
    file per process, so forked workers report too)."""

    def __init__(self, directory) -> None:
        self.path = directory / f"{os.getpid()}.jsonl"
        self.seen: list = []

    def on_instruction(self, frame, dex_pc: int, ins) -> None:
        method = frame.method
        if method.declaring_class.source_dex is None:
            return
        units = frame.code.insns[dex_pc:dex_pc + ins.unit_count]
        self.seen.append([method.ref.signature, dex_pc, units,
                          DexLegoCollector._resolve_symbol(frame, ins)])

    def flush(self) -> None:
        with open(self.path, "a") as fh:
            fh.write(json.dumps(self.seen) + "\n")


def _resolve_at_every_step(monkeypatch, directory) -> None:
    """Every replay, in process or in a worker forked after this, runs
    with a :class:`_StepSymbols` listener."""
    original = replay.execute_replay

    def with_step_symbols(*args, **kwargs):
        listener = _StepSymbols(directory)
        kwargs["extra_listeners"] = (*kwargs.get("extra_listeners", ()),
                                     listener)
        delta = original(*args, **kwargs)
        listener.flush()
        return delta
    monkeypatch.setattr(replay, "execute_replay", with_step_symbols)
    monkeypatch.setattr(force_execution, "execute_replay", with_step_symbols)


def _check_symbols(result, directory) -> int:
    """Every collected entry's symbol is one its step resolved; returns
    how many entries were checked."""
    seen = set()
    for path in directory.iterdir():
        for line in path.read_text().splitlines():
            for signature, dex_pc, units, symbol in json.loads(line):
                seen.add((signature, dex_pc, tuple(units), symbol))
    checked = 0
    for tree in result.archive.collector.trees():
        nodes = [tree.root]
        while nodes:
            node = nodes.pop()
            nodes.extend(node.children)
            for entry in node.il:
                assert (tree.method_signature, entry.dex_pc, entry.units,
                        entry.symbol) in seen, (tree.method_signature, entry)
                checked += 1
    return checked


#: The self-modifying, reflection and dynamic-loading DroidBench samples.
_SYMBOL_SAMPLES = (
    *(f"SelfMod{i}" for i in range(4)),
    *(f"ReflectConst{i}" for i in range(6)),
    *(f"ReflectAdv{i}" for i in range(5)),
    *(f"DynLoad{i}" for i in range(3)),
)


class TestSymbolsAtExit:
    """Replay collectors resolve a logged frame's symbols at method exit:
    each must equal the symbol its step resolved."""

    @pytest.mark.parametrize("backend,workers",
                             [(BACKEND_SERIAL, 1), (BACKEND_PROCESS, 2)])
    @pytest.mark.parametrize("name", _SYMBOL_SAMPLES)
    def test_droidbench_sample(self, monkeypatch, tmp_path, name,
                               backend, workers):
        _resolve_at_every_step(monkeypatch, tmp_path)
        sample = sample_by_name(name)
        result = reveal_apk(sample.build_apk(), config=RevealConfig(
            device=sample.device, use_force_execution=True, max_paths=8,
            explore_backend=backend, explore_workers=workers))
        assert _check_symbols(result, tmp_path) > 0

    @pytest.mark.parametrize("package", [spec[0] for spec in MARKET_APP_SPECS])
    def test_packed_market_app(self, monkeypatch, tmp_path, package):
        _resolve_at_every_step(monkeypatch, tmp_path)
        result = reveal_apk(build_market_app(package).packed_apk,
                            config=RevealConfig(use_force_execution=True,
                                                max_paths=4))
        assert _check_symbols(result, tmp_path) > 0


def test_the_symbol_samples_are_the_three_categories():
    assert list(_SYMBOL_SAMPLES) == [
        s.name for s in selfmod.samples() + reflection.samples()
        + dynload.samples()]
