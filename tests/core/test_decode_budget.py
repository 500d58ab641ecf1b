"""What a reveal decodes: each collected instruction once, at collection.

A collected instruction carries the ``Instruction`` the interpreter
executed, so reassembly, the method digests and the known-tree match
read it instead of decoding the units again, and the reassembled DEX
is built with its pools in binary-format order, so ``write_dex`` has
no instruction to remap.  :class:`TestDecodeBudget` counts
``Instruction.decode_at`` over the service's ``reveal_one``: what is
left are the interpreter's predecodes and ``verify_dex``'s walk.
:class:`TestCarriedDecode` checks the carried decode against a decode
of the collected units where code patches itself.
"""

from collections import Counter

import pytest

from repro.benchsuite.categories.selfmod import samples as selfmod_samples
from repro.benchsuite.codegen import AppProfile, generate_app
from repro.core import CollectStage, RevealConfig, stages
from repro.core.tree import CollectedInstruction
from repro.dex.instructions import Instruction
from repro.runtime import Apk, interpreter
from repro.service import BatchRevealService, RevealJob


class _DecodeCounter:
    """``Instruction.decode_at`` calls, by the phase that made them."""

    def __init__(self, mp: pytest.MonkeyPatch) -> None:
        self.mp = mp
        self.phase = "other"
        self.counts: Counter = Counter()
        decode = Instruction.decode_at.__func__

        def counting(cls, units, pos):
            self.counts[self.phase] += 1
            return decode(cls, units, pos)

        mp.setattr(Instruction, "decode_at", classmethod(counting))

    def wrap(self, func, phase: str):
        def in_phase(*args, **kwargs):
            outer, self.phase = self.phase, phase
            try:
                return func(*args, **kwargs)
            finally:
                self.phase = outer
        return in_phase

    def phase_of(self, owner, attr: str, phase: str) -> None:
        self.mp.setattr(owner, attr, self.wrap(getattr(owner, attr), phase))


def _fdroid_app(seed: int, size: int) -> Apk:
    """A generated app as a job carries it: read from its bytes."""
    profile = AppProfile(gated=0.50, dead=0.08, crash=0.0, handler=0.05)
    return Apk.from_bytes(generate_app(f"budget.app{seed}.{size}", size,
                                       seed=seed, profile=profile)
                          .apk.to_bytes())


class TestDecodeBudget:
    @pytest.mark.parametrize("seed,size", [(1, 1000), (1, 6000),
                                           (4409, 3000)])
    def test_plain_reveal_one(self, seed, size, monkeypatch):
        apk = _fdroid_app(seed, size)
        counter = _DecodeCounter(monkeypatch)
        counter.phase_of(interpreter, "_predecode", "predecode")
        counter.phase_of(stages, "write_dex", "write_dex")
        counter.phase_of(stages.VerifyStage, "run", "verify")
        monkeypatch.setattr(
            CollectedInstruction, "instruction",
            property(counter.wrap(CollectedInstruction.instruction.fget,
                                  "collected")))

        outcome = BatchRevealService().reveal_one(
            RevealJob(f"budget{seed}", apk))
        assert outcome.status == "ok", outcome.error

        counts = dict(counter.counts)
        assert counts.keys() == {"predecode", "verify"}, counts
        # verify_dex decodes each instruction of the revealed DEX once.
        monkeypatch.undo()
        assert counts["verify"] == \
            outcome.result.reassembled_dex.total_instruction_count()


def _collected(config: RevealConfig, sample):
    collector = CollectStage(config).run(sample.build_apk()).archive.collector
    return [collected for tree in collector.trees()
            for node in _nodes(tree.root) for collected in node.il]


def _nodes(node):
    yield node
    for child in node.children:
        yield from _nodes(child)


class TestCarriedDecode:
    """Self-modifying samples patch code between executions: the
    interpreter's decode of the live units is what each collected
    instruction carries."""

    @pytest.mark.parametrize("force", [False, True],
                             ids=["standard", "force"])
    @pytest.mark.parametrize("sample", selfmod_samples(),
                             ids=lambda s: s.name)
    def test_carried_decode_is_the_units_decoded(self, sample, force):
        config = RevealConfig(use_force_execution=force,
                              device=sample.device)
        collected = _collected(config, sample)
        assert collected
        for entry in collected:
            assert entry.ins is not None
            assert entry.ins == Instruction.decode_at(list(entry.units), 0)
