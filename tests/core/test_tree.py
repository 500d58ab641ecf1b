"""Collection tree tests: Algorithm 1 semantics, and the known-tree
skip a replay collector decides at method exit from a log of first
visits (collector-level cases: ``test_replay_collector.py``)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.collector import DexLegoCollector
from repro.core.method_store import MethodRecord
from repro.core.tree import CollectedInstruction, CollectionTree, TreeNode
from repro.dex.instructions import Instruction


def _ci(dex_pc: int, units: tuple, symbol=None) -> CollectedInstruction:
    return CollectedInstruction(dex_pc, units, None, symbol)


_SIG = "Lt/X;->m()V"


def _tree() -> CollectionTree:
    return CollectionTree(_SIG, 4, 1, 1)


_NOP = (0x0000,)
_CONST_A = (0x0112,)  # const/4 v1, 0
_CONST_B = (0x1112,)  # const/4 v1, 1
_CONST_C = (0x2112,)  # const/4 v1, 2
_RET = (0x000E,)
_SWITCH = (0x002B, 4, 0)  # packed-switch v0, +4: carries a payload

# -- the known-tree skip --------------------------------------------------

_PAYLOADS = (None, (0x0100, 1, 0, 0, 5, 0), (0x0100, 1, 0, 0, 7, 0))

#: One ordinary run of the method: a loop visits pcs 1 and 2 twice
#: (repeats), pc 2 carries a payload, then it returns.
_BASE_RUN = [
    (0, _CONST_A, None), (1, _NOP, None), (2, _SWITCH, _PAYLOADS[1]),
    (1, _NOP, None), (2, _SWITCH, _PAYLOADS[1]), (3, _RET, None),
]


@st.composite
def _edited_run(draw):
    """The base run with a few edits: an early exit, a new pc out of
    order, or changed units or payload at some step (at a seen pc that
    is a divergence, and the next unchanged step converges)."""
    events = list(_BASE_RUN)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(events)))
        edit = draw(st.sampled_from(["exit", "new-pc", "units", "payload"]))
        if edit == "exit":
            del events[at:]
        elif edit == "new-pc":
            events.insert(at, (draw(st.integers(4, 6)),
                               draw(st.sampled_from([_CONST_B, _NOP])), None))
        elif at < len(events):
            dex_pc, units, payload = events[at]
            if edit == "units":
                units = draw(st.sampled_from([_CONST_A, _CONST_C, _NOP]))
            else:
                payload = draw(st.sampled_from(_PAYLOADS))
            events[at] = (dex_pc, units, payload)
    return events


_random_run = st.lists(
    st.tuples(st.integers(0, 6),
              st.sampled_from([_CONST_A, _CONST_B, _NOP, _SWITCH]),
              st.sampled_from(_PAYLOADS)),
    max_size=12,
)
_frames = st.lists(st.one_of(_edited_run(), _edited_run(), _random_run),
                   max_size=4)


def _symbols(dex: int):
    """A replay's fresh symbol resolution: the pool it resolves against
    (``dex``) can differ between replays, as with reloaded code."""
    def resolve(units: tuple) -> str | None:
        if units in (_NOP, _RET, _SWITCH):
            return None
        return f"dex{dex}:{units[0]:#06x}"
    return resolve


def _logged_tree(log: dict, resolve) -> CollectionTree:
    """The tree a log of first visits is: each pc once, in order."""
    tree = _tree()
    for dex_pc, (units, payload) in log.items():
        tree.root.record(CollectedInstruction(dex_pc, units, payload,
                                              resolve(units)))
    return tree


def _replay(frames, dex: int, known: DexLegoCollector | None):
    """One replay's private collector, each frame fed the way
    ``DexLegoCollector`` feeds it.  With known trees: a log of first
    visits while every repeat shows what its first visit did (the code
    holding still), decided at exit by one fingerprint lookup in the
    known record; once a repeat shows other code, the log becomes a
    tree, Algorithm 1 streams the rest and the tree is dropped at exit
    if the known record holds it.  Without: Algorithm 1 on every
    step."""
    collector = DexLegoCollector()
    record = collector.method_store.ensure(
        MethodRecord(_SIG, "Lt/X;", "m", (), "V", 1))
    held = known.method_store.get(_SIG) if known is not None else None
    resolve = _symbols(dex)
    for events in frames:
        log = {} if known is not None else None  # pc -> (units, payload)
        tree = None if known is not None else _tree()
        for dex_pc, units, payload in events:
            collector.instructions_observed += 1
            if log is not None:
                first = log.setdefault(dex_pc, (units, payload))
                if first == (units, payload):
                    continue
                tree = _logged_tree(log, resolve)  # the code changed
                log = None
            tree.observe(CollectedInstruction(dex_pc, units, payload,
                                              resolve(units)))
        if log is not None:
            if not log:
                continue
            key = (_SIG, (0, tuple((pc, *first) for pc, first
                                   in log.items()), ()))
            if held is not None and held.holds(key):
                continue
            tree = _logged_tree(log, resolve)
        elif held is not None and held.holds(tree.fingerprint()):
            continue
        if tree.root.il:
            record.add_tree(tree)
    return collector


def _trees(collector: DexLegoCollector) -> list[dict]:
    record = collector.method_store.get(_SIG)
    return [] if record is None else [t.to_dict() for t in record.trees]


class TestBaselineRecording:
    def test_first_execution_goes_to_root(self):
        tree = _tree()
        tree.observe(_ci(0, _CONST_A))
        tree.observe(_ci(1, _RET))
        assert [c.dex_pc for c in tree.root.il] == [0, 1]
        assert tree.root.iim == {0: 0, 1: 1}

    def test_repeat_same_instruction_not_recorded(self):
        tree = _tree()
        for _ in range(5):
            tree.observe(_ci(0, _CONST_A))
        assert len(tree.root.il) == 1

    def test_loop_keeps_code_size_stable(self):
        tree = _tree()
        for _round in range(10):
            tree.observe(_ci(0, _CONST_A))
            tree.observe(_ci(1, _NOP))
            tree.observe(_ci(2, _RET))
        assert tree.instruction_count() == 3

    def test_branchy_execution_records_first_visit_order(self):
        tree = _tree()
        # dex_pc order of execution: 0, 5, 2 (branch back).
        tree.observe(_ci(0, _CONST_A))
        tree.observe(_ci(5, _NOP))
        tree.observe(_ci(2, _RET))
        assert [c.dex_pc for c in tree.root.il] == [0, 5, 2]
        assert tree.root.iim[5] == 1  # IL index differs from dex_pc


class TestDivergence:
    def test_modified_instruction_forks_child(self):
        tree = _tree()
        tree.observe(_ci(0, _CONST_A))
        tree.observe(_ci(0, _CONST_B))
        assert len(tree.root.children) == 1
        child = tree.root.children[0]
        assert child.sm_start == 0
        assert child.il[0].units == _CONST_B
        assert tree.current is child

    def test_convergence_returns_to_parent(self):
        tree = _tree()
        tree.observe(_ci(0, _CONST_A))
        tree.observe(_ci(1, _NOP))
        tree.observe(_ci(0, _CONST_B))  # diverge
        tree.observe(_ci(1, _NOP))  # same as parent -> converge
        child = tree.root.children[0]
        assert child.sm_end == 1
        assert tree.current is tree.root

    def test_paper_code1_shape(self):
        """Listing 1: a root plus one single-instruction child."""
        tree = _tree()
        invoke_normal = (0x106E, 5, 0x0003)
        invoke_sink = (0x106E, 6, 0x0003)
        invoke_tamper = (0x206E, 7, 0x0013)
        loop = [
            _ci(0, (0x0070,)),  # source
            _ci(3, _CONST_A),
        ]
        for collected in loop:
            tree.observe(collected)
        # iteration 1: normal(a); tamper(0)
        tree.observe(_ci(8, invoke_normal))
        tree.observe(_ci(11, invoke_tamper))
        # iteration 2: sink(a) -- divergence; tamper(1) -- convergence
        tree.observe(_ci(8, invoke_sink))
        tree.observe(_ci(11, invoke_tamper))
        assert tree.node_count() == 2
        child = tree.root.children[0]
        assert child.sm_start == 8
        assert child.sm_end == 11
        assert len(child.il) == 1  # "the child node contains only one instruction"

    def test_multi_layer_nesting(self):
        tree = _tree()
        tree.observe(_ci(0, _CONST_A))
        tree.observe(_ci(0, _CONST_B))  # layer 1
        tree.observe(_ci(0, _CONST_C))  # layer 2: B != C inside child
        assert tree.root.depth() == 2
        layer1 = tree.root.children[0]
        layer2 = layer1.children[0]
        assert layer2.il[0].units == _CONST_C

    def test_sibling_divergences(self):
        tree = _tree()
        tree.observe(_ci(0, _CONST_A))
        tree.observe(_ci(2, _NOP))
        tree.observe(_ci(0, _CONST_B))  # diverge at 0
        tree.observe(_ci(2, _NOP))  # converge
        tree.observe(_ci(0, _CONST_A))  # back to baseline (same as root)
        tree.observe(_ci(4, _RET))  # new root instruction
        assert len(tree.root.children) == 1
        assert {c.dex_pc for c in tree.root.il} == {0, 2, 4}


class TestSerialization:
    def test_dict_roundtrip(self):
        tree = _tree()
        tree.observe(_ci(0, _CONST_A, "Lx;->y()V"))
        tree.observe(_ci(0, _CONST_B))
        tree.observe(_ci(3, _RET))
        again = CollectionTree.from_dict(tree.to_dict())
        assert again.fingerprint() == tree.fingerprint()
        assert again.root.il[0].symbol == "Lx;->y()V"

    def test_carried_decode_is_not_identity(self):
        decoded = Instruction.decode_at(list(_CONST_A), 0)
        carrying = CollectedInstruction(0, _CONST_A, None, "s", decoded)
        bare = CollectedInstruction(0, _CONST_A, None, "s")
        assert carrying == bare and hash(carrying) == hash(bare)
        trees = []
        for entry in (carrying, bare):
            tree = _tree()
            tree.observe(entry)
            trees.append(tree)
        assert trees[0].fingerprint() == trees[1].fingerprint()
        assert trees[0].to_dict() == trees[1].to_dict()
        assert carrying.instruction is decoded

    def test_loaded_tree_decodes_once_on_first_use(self, monkeypatch):
        tree = _tree()
        tree.observe(_ci(0, _CONST_A))
        entry = CollectionTree.from_dict(tree.to_dict()).root.il[0]
        assert entry.ins is None
        decode = Instruction.decode_at.__func__
        calls = []

        def counting(cls, units, pos):
            calls.append(pos)
            return decode(cls, units, pos)

        monkeypatch.setattr(Instruction, "decode_at", classmethod(counting))
        first = entry.instruction
        assert entry.instruction is first and entry.ins is first
        assert len(calls) == 1
        assert first == decode(Instruction, list(_CONST_A), 0)

    def test_fingerprint_distinguishes_trees(self):
        t1, t2 = _tree(), _tree()
        t1.observe(_ci(0, _CONST_A))
        t2.observe(_ci(0, _CONST_B))
        assert t1.fingerprint() != t2.fingerprint()

    def test_fingerprint_equal_for_identical(self):
        t1, t2 = _tree(), _tree()
        for t in (t1, t2):
            t.observe(_ci(0, _CONST_A))
            t.observe(_ci(1, _RET))
        assert t1.fingerprint() == t2.fingerprint()

    @given(st.lists(st.tuples(st.integers(0, 8),
                              st.sampled_from([_CONST_A, _CONST_B, _CONST_C])),
                    max_size=40))
    def test_roundtrip_any_observation_sequence(self, events):
        tree = _tree()
        for dex_pc, units in events:
            tree.observe(_ci(dex_pc, units))
        again = CollectionTree.from_dict(tree.to_dict())
        assert again.fingerprint() == tree.fingerprint()

    @given(st.lists(st.lists(st.tuples(st.integers(0, 1), _frames)),
                    min_size=1, max_size=5))
    def test_known_tree_skip_merges_like_full_collection(self, waves):
        """The engine merge of replay collectors built against the
        engine's trees equals the merge of collectors built without
        them: same trees, same order, every field (symbols included)."""
        skipping, reference = DexLegoCollector(), DexLegoCollector()
        for wave in waves:
            # Every replay of a wave runs against the same engine state;
            # merging happens after the wave, in replay order.
            fast = [_replay(frames, dex, skipping) for dex, frames in wave]
            full = [_replay(frames, dex, None) for dex, frames in wave]
            for replay in fast:
                skipping.absorb(replay)
            for replay in full:
                reference.absorb(replay)
            assert _trees(skipping) == _trees(reference)
        assert skipping.instructions_observed == \
            reference.instructions_observed

    @given(st.lists(st.tuples(st.integers(0, 6),
                              st.sampled_from([_CONST_A, _CONST_B])),
                    max_size=60))
    def test_invariant_no_duplicate_pc_in_node(self, events):
        """Within one node, each dex_pc appears at most once in IL."""
        tree = _tree()
        for dex_pc, units in events:
            tree.observe(_ci(dex_pc, units))

        def check(node: TreeNode):
            pcs = [c.dex_pc for c in node.il]
            assert len(pcs) == len(set(pcs))
            for child in node.children:
                check(child)

        check(tree.root)

