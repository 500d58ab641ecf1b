"""The body writer builds an op record only while it records.

A plain or force reveal with no corpus index never records, so its
emission must build no op list; a reveal that records must record what
the writer recorded before it stopped building ops it would drop, so
the index's ``bodies/*.json`` keep their bytes.
"""

import inspect
import os
import sys

from repro.benchsuite import droidbench_samples
from repro.benchsuite.shared_corpus import build_shared_corpus_app
from repro.core import body_cache, reassembler
from repro.core.body_cache import _KIND_TAGS, BodyWriter, _intern
from repro.core.config import RevealConfig
from repro.core.pipeline import reveal_apk
from repro.dex import write_dex
from repro.dex.opcodes import IndexKind
from repro.service import BatchRevealService, RevealJob


class _ReferenceBodyWriter:
    """:class:`BodyWriter` as it was when every call built its op and
    ``_rec`` dropped it unless recording, kept verbatim as the
    reference for what a recording writer records."""

    def __init__(self, reassembler, mb, record, recording):
        self.reassembler = reassembler
        self.mb = mb
        self.record = record
        self.ops = [] if recording else None

    def _rec(self, op):
        if self.ops is not None:
            self.ops.append(op)

    def disable(self):
        self.ops = None

    def raw(self, name, *operands):
        self.mb.raw(name, *operands)
        self._rec(["raw", name, list(operands)])

    def move(self, dst, src):
        self.mb.move(dst, src)
        self._rec(["move", dst, src])

    def move_object(self, dst, src):
        self.mb.move_object(dst, src)
        self._rec(["moveo", dst, src])

    def sym(self, name, kind: IndexKind, symbol, pre, post, outs=0):
        mb = self.mb
        index = _intern(mb.dex, kind, symbol)
        mb.raw(name, *pre, index, *post)
        if outs:
            mb._outs = max(mb._outs, outs)
        self._rec(["sym", name, _KIND_TAGS[kind], symbol,
                   list(pre), list(post), outs])

    def ifield_read(self, suffix, reg):
        from repro.core.reassembler import INSTRUMENT_CLASS

        name = self.reassembler._new_instrument_field(
            self.record.signature, suffix)
        self.mb.field_op("sget-boolean", reg,
                         f"{INSTRUMENT_CLASS}->{name}:Z")
        self._rec(["ifield", suffix, reg])

    def if_zero(self, cond, reg, label):
        self.mb.if_zero(cond, reg, label)
        self._rec(["ifz", cond, reg, label])

    def label(self, name):
        self.mb.label(name)
        self._rec(["label", name])

    def goto_(self, label):
        self.mb.goto_(label)
        self._rec(["goto", label])

    def branch(self, name, operands, label):
        self.mb._emit_branch(name, tuple(operands), label)
        self._rec(["br", name, list(operands), label])

    def packed_switch(self, reg, first_key, labels):
        self.mb.packed_switch(reg, first_key, labels)
        self._rec(["pswitch", reg, first_key, list(labels)])

    def sparse_switch(self, reg, cases):
        self.mb.sparse_switch(reg, cases)
        self._rec(["sswitch", reg, [[key, label] for key, label in cases]])

    def fill_array_data(self, reg, element_width, values):
        self.mb.fill_array_data(reg, element_width, values)
        self._rec(["fill", reg, element_width, list(values)])

    def try_range(self, start_label, end_label, handlers):
        self.mb.try_range(start_label, end_label, handlers)
        self._rec(["try", start_label, end_label,
                   [[desc, label] for desc, label in handlers]])


def _record_lines() -> set[int]:
    """Line numbers in ``body_cache.py`` where a writer builds an op:
    each op is a list literal opening with its tag, ``(["tag", ...``."""
    lines, first = inspect.getsourcelines(BodyWriter)
    return {first + offset for offset, line in enumerate(lines)
            if '(["' in line}


def _lines_run(call) -> set[int]:
    """``body_cache.py`` line numbers executed while ``call()`` runs."""
    path = body_cache.__file__
    executed: set[int] = set()

    def trace(frame, event, _arg):
        if frame.f_code.co_filename != path:
            return None
        if event == "line":
            executed.add(frame.f_lineno)
        return trace

    sys.settrace(trace)
    try:
        call()
    finally:
        sys.settrace(None)
    return executed


def _returned_ops(monkeypatch) -> list:
    """What every ``_emit_collected_body`` call returns, from now on."""
    returned = []
    emit = reassembler.Reassembler._emit_collected_body

    def spy(self, *args, **kwargs):
        ops = emit(self, *args, **kwargs)
        returned.append(ops)
        return ops

    monkeypatch.setattr(reassembler.Reassembler, "_emit_collected_body", spy)
    return returned


#: Self-modifying code, reflective invokes (bodies that disable their
#: writer), try blocks, arrays, branches and force-only code.
_SAMPLES = ("SelfMod0", "ReflectAdv0", "ReflectConst1", "Exceptions1",
            "ArrayFlow0", "Implicit0", "DeadCode0", "EmulatorDetection1")


def _samples():
    by_name = {sample.name: sample for sample in droidbench_samples()}
    return [by_name[name] for name in _SAMPLES]


class TestNonRecordingEmission:
    def test_plain_and_force_reveals_build_no_op_list(self, monkeypatch):
        returned = _returned_ops(monkeypatch)
        record_lines = _record_lines()
        assert len(record_lines) == 13  # one per emitter

        def reveal():
            for sample in _samples():
                for force in (False, True):
                    reveal_apk(sample.build_apk(), RevealConfig(
                        device=sample.device, use_force_execution=force))

        executed = _lines_run(reveal)
        assert returned and all(ops is None for ops in returned)
        assert executed  # the writer ran ...
        assert not executed & record_lines  # ... and built no op

    def test_a_recording_reveal_builds_its_ops(self, monkeypatch, tmp_path):
        returned = _returned_ops(monkeypatch)
        app = build_shared_corpus_app("org.rec.app0", corpus_seed=1)
        service = BatchRevealService(config=RevealConfig(
            index_dir=str(tmp_path / "index")), workers=1)
        executed = _lines_run(
            lambda: service.reveal_one(RevealJob(app.package, app.apk)))
        service.stores.index.close()
        assert any(returned)
        assert executed & _record_lines()


def _fleet_reveal(root: str, apps) -> tuple[list, dict]:
    """Each app's revealed DEX bytes through one service with a corpus
    index at ``root``, and every ``bodies/*.json`` it stored."""
    service = BatchRevealService(config=RevealConfig(index_dir=root),
                                 workers=1)
    dexes = []
    for app in apps:
        outcome = service.reveal_one(RevealJob(app.package, app.apk))
        assert outcome.status == "ok", outcome.error
        dexes.append(write_dex(outcome.reassembled_dex))
    service.stores.index.close()
    bodies = {}
    directory = os.path.join(root, "bodies")
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            bodies[name] = fh.read()
    return dexes, bodies


class TestRecordedOps:
    def test_fleet_corpus_bodies_equal_the_reference_writer(
            self, monkeypatch, tmp_path):
        apps = [build_shared_corpus_app(f"org.fleet.app{i}", corpus_seed=1,
                                        app_seed=i) for i in range(4)]
        dexes, bodies = _fleet_reveal(str(tmp_path / "now"), apps)
        monkeypatch.setattr(reassembler, "BodyWriter", _ReferenceBodyWriter)
        want_dexes, want_bodies = _fleet_reveal(str(tmp_path / "ref"), apps)
        assert len(bodies) > 50
        assert bodies == want_bodies
        assert dexes == want_dexes
