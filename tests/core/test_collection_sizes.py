"""The dump size is the length of the collection files' render.

``CollectionArchive.total_size_bytes`` counts what
``json.dumps(rows, indent=1)`` would write, from the collector, without
rendering it.  The render is the oracle: :class:`TestExactSize` checks
the count against it on generated collectors that reach every JSON
rule a collection file can meet.  The differentials in
``tests/core/test_determinism.py`` check it on the collectors of real
reveals.
"""

import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import CollectionArchive
from repro.core.collector import (
    ALL_FILES,
    CollectedClass,
    CollectedField,
    DexLegoCollector,
    ReflectionSite,
)
from repro.core.method_store import CollectedTry, MethodRecord
from repro.core.tree import CollectedInstruction, CollectionTree, TreeNode
from repro.dex.constants import AccessFlags


def _rendered_size(archive: CollectionArchive) -> int:
    """The oracle: the collection files rendered, in UTF-8 bytes."""
    rows = archive.collector.rows()
    return sum(len(json.dumps(rows[name], indent=1).encode("utf-8"))
               for name in ALL_FILES)


def _assert_size_is_render(collector: DexLegoCollector) -> int:
    """The count from the collector equals the render's length."""
    archive = CollectionArchive.from_collector(collector)
    counted = archive.total_size_bytes()
    assert counted == _rendered_size(archive)
    return counted


# -- generated collectors ---------------------------------------------------

#: Text json escapes every way: quotes, backslashes, control and
#: non-ASCII characters, astral ones (a surrogate pair each) and lone
#: surrogates.
_TEXT = st.text(st.one_of(
    st.characters(),
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é\ud800\U0001f600'),
), max_size=12)
_INT = st.integers(-(2 ** 64), 2 ** 64)
_UNITS = st.lists(st.integers(0, 0xFFFF), max_size=5).map(tuple)
_ACCESS = st.one_of(
    _INT,
    st.sampled_from(list(AccessFlags)),
    st.lists(st.sampled_from(list(AccessFlags)), min_size=1, max_size=4)
    .map(lambda flags: AccessFlags(sum(set(flags)))),
)
_STATIC = st.one_of(
    st.just(("null",)),
    st.tuples(st.just("string"), _TEXT),
    st.tuples(st.just("bool"), st.booleans()),
    st.tuples(st.just("int"), _INT),
    st.tuples(st.just("float"), st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300,
                         5e-324]))),
)
_ENTRY = st.builds(
    CollectedInstruction, _INT, _UNITS,
    st.one_of(st.none(), _UNITS), st.one_of(st.none(), _TEXT))


@st.composite
def _node(draw, parent=None, depth=0):
    node = TreeNode(parent, draw(_INT))
    node.sm_end = draw(_INT)
    for entry in draw(st.lists(_ENTRY, max_size=4)):
        node.record(entry)
    if depth < 3:
        for _ in range(draw(st.integers(0, 2))):
            draw(_node(node, depth + 1))
    return node


@st.composite
def _tree(draw):
    tree = CollectionTree(draw(_TEXT), draw(_INT), draw(_INT), draw(_INT))
    tree.root = tree.current = draw(_node())
    return tree


@st.composite
def _collector(draw):
    collector = DexLegoCollector()
    for descriptor in draw(st.lists(_TEXT, max_size=3, unique=True)):
        collector.classes[descriptor] = CollectedClass(
            descriptor, draw(st.one_of(st.none(), _TEXT)),
            tuple(draw(st.lists(_TEXT, max_size=3))), draw(_ACCESS),
            [CollectedField(name, type_desc, access, value)
             for name, type_desc, access, value in draw(st.lists(
                 st.tuples(_TEXT, _TEXT, _ACCESS, _STATIC), max_size=3))],
            draw(st.lists(_TEXT, max_size=3)), draw(st.booleans()))
    for signature in draw(st.lists(_TEXT, max_size=3, unique=True)):
        record = MethodRecord(
            signature, draw(_TEXT), draw(_TEXT),
            tuple(draw(st.lists(_TEXT, max_size=3))), draw(_TEXT),
            draw(_ACCESS), draw(st.booleans()), draw(_INT), draw(_INT),
            draw(_INT),
            [CollectedTry(start, count, handlers, catch_all)
             for start, count, handlers, catch_all in draw(st.lists(
                 st.tuples(_INT, _INT,
                           st.lists(st.tuples(_TEXT, _INT), max_size=2),
                           st.one_of(st.none(), _INT)), max_size=2))])
        collector.method_store.ensure(record)
        for tree in draw(st.lists(_tree(), max_size=2)):
            record.trees.append(tree)
    for caller, dex_pc in draw(st.lists(st.tuples(_TEXT, _INT),
                                        max_size=2, unique=True)):
        site = ReflectionSite(caller, dex_pc)
        for target, is_static in draw(st.lists(
                st.tuples(_TEXT, st.booleans()), max_size=3)):
            site.add_target(target, is_static)
        collector.reflection_sites[(caller, dex_pc)] = site
    return collector


class TestExactSize:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(_collector())
    def test_size_is_the_render_length(self, collector):
        _assert_size_is_render(collector)

    def test_empty_collector(self):
        # Six empty lists: "[]" each.
        assert _assert_size_is_render(DexLegoCollector()) == 12
