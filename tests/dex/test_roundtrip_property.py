"""DEX round trip as a property: write, read back, write again.

``write_dex`` is the one way a :class:`~repro.dex.structures.DexFile`
becomes bytes: it sorts the pools into binary-format order first, so an
in-memory file whose classes declare fields and methods in any order
still encodes (``class_data`` stores index deltas, which must ascend).
For every input, the bytes must read back into a file that verifies
and writes out to the very same bytes.  A file read back is already in
binary-format order, so writing it decodes no instruction.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchsuite.codegen import AppProfile, generate_app
from repro.dex import (
    Instruction,
    assemble,
    assert_valid,
    disassemble_code,
    read_dex,
    write_dex,
)


def _assert_round_trips(dex) -> None:
    data = write_dex(dex)
    again = read_dex(data)
    assert_valid(again)
    assert write_dex(again) == data


_profiles = st.builds(
    AppProfile,
    gated=st.sampled_from([0.0, 0.2, 0.5]),
    dead=st.sampled_from([0.0, 0.08]),
    crash=st.sampled_from([0.0, 0.05]),
    handler=st.sampled_from([0.0, 0.05]),
)


@settings(max_examples=20, deadline=None)
@given(size=st.integers(150, 2500), seed=st.integers(0, 2**16),
       profile=_profiles)
def test_generated_app_round_trips(size, seed, profile):
    app = generate_app("p.gen", size, seed=seed, profile=profile)
    for dex in app.apk.dex_files:
        _assert_round_trips(dex)


@settings(max_examples=10, deadline=None)
@given(size=st.integers(150, 2500), seed=st.integers(0, 2**16),
       profile=_profiles)
def test_canonical_file_writes_without_decoding(size, seed, profile):
    app = generate_app("p.gen", size, seed=seed, profile=profile)
    for dex in app.apk.dex_files:
        data = write_dex(dex)
        again = read_dex(data)
        calls = []
        decode_at = Instruction.decode_at
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Instruction, "decode_at", classmethod(
                lambda cls, units, pos: calls.append(pos)
                or decode_at(units, pos)))
            assert write_dex(again) == data
        assert calls == []


_names = st.lists(st.from_regex(r"[a-z][a-z0-9]{0,5}", fullmatch=True),
                  min_size=1, max_size=8, unique=True)


@st.composite
def _unordered_class(draw) -> str:
    """A class whose fields and methods are declared in drawn order —
    rarely the order their pool entries sort into.  Each method calls
    the next one declared, so every method reference is in use, and
    static fields carry initial values (the encoded array follows the
    static fields' index order, not their declaration order).  A
    static method can only call the next one if it is static too."""
    fields = draw(_names)
    methods = draw(_names)
    statics = draw(st.lists(st.booleans(), min_size=len(methods),
                            max_size=len(methods)))
    lines = [".class public Lp/Mixed;", ".super Ljava/lang/Object;"]
    for value, name in enumerate(fields):
        lines.append(f".field public static {name}:I = {value}")
    for i, (name, static) in enumerate(zip(methods, statics)):
        j = (i + 1) % len(methods)
        if statics[j]:
            call = f"invoke-static {{}}, Lp/Mixed;->{methods[j]}()I"
        elif not static:
            call = f"invoke-virtual {{p0}}, Lp/Mixed;->{methods[j]}()I"
        else:
            call = "nop"  # a static caller has no receiver
        lines += [
            f".method public {'static ' if static else ''}{name}()I",
            "    .registers 2",
            f"    sget v0, Lp/Mixed;->{fields[i % len(fields)]}:I",
            "    if-eqz v0, :done",
            f"    {call}",
            "    :done",
            "    return v0",
            ".end method",
        ]
    return "\n".join(lines) + "\n"


def _method_bodies(dex) -> dict:
    """Each method's body with its pool references resolved to text."""
    return {ref.signature: disassemble_code(dex, method.code)
            for _cls, method, ref in dex.iter_methods()
            if method.code is not None}


@given(_unordered_class())
def test_out_of_pool_order_class_round_trips(text):
    # Sorting the pools moves indices: the instructions must follow.
    dex = assemble(text)
    bodies = _method_bodies(dex)
    _assert_round_trips(dex)
    assert _method_bodies(dex) == bodies
