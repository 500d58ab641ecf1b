"""Properties of the pure-python TLSH-style fuzzy digest.

The digest and distance kernels are table-driven; the plain loop
versions they replaced live here as references, and hypothesis
properties require both kernels to give exactly their results.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import fuzzy
from repro.index.fuzzy import (
    _BODY_BYTES,
    _BUCKETS,
    _DIGEST_LEN,
    _TRIPLETS,
    _WINDOW,
    MIN_FUZZY_LEN,
    _capped_log_length,
    _pearson_table,
    fuzzy_digest,
    fuzzy_distance,
)

# -- loop references ----------------------------------------------------------

_REF_TABLE = _pearson_table()


def _reference_bucket_hash(salt: int, a: int, b: int, c: int) -> int:
    t = _REF_TABLE
    return t[t[t[salt ^ a] ^ b] ^ c]


def _reference_digest(data: bytes) -> str | None:
    """One window at a time, six Pearson hashes per window."""
    if len(data) < MIN_FUZZY_LEN:
        return None
    buckets = [0] * _BUCKETS
    checksum = 0
    t = _REF_TABLE
    for i in range(len(data) - _WINDOW + 1):
        w = data[i:i + _WINDOW]
        checksum = t[w[0] ^ checksum]
        for salt, x, y, z in _TRIPLETS:
            buckets[_reference_bucket_hash(salt, w[x], w[y], w[z])
                    % _BUCKETS] += 1
    ordered = sorted(buckets)
    q1 = ordered[_BUCKETS // 4 - 1]
    q2 = ordered[_BUCKETS // 2 - 1]
    q3 = ordered[(_BUCKETS * 3) // 4 - 1]
    if q3 == 0:
        return None
    header = (
        f"{checksum:02x}"
        f"{_capped_log_length(len(data)):02x}"
        f"{(q1 * 100 // q3) % 16:x}"
        f"{(q2 * 100 // q3) % 16:x}"
    )
    body = bytearray(_BODY_BYTES)
    for index, count in enumerate(buckets):
        if count <= q1:
            bits = 0
        elif count <= q2:
            bits = 1
        elif count <= q3:
            bits = 2
        else:
            bits = 3
        body[index // 4] |= bits << ((index % 4) * 2)
    return header + body.hex()


def _reference_byte_cost(byte_a: int, byte_b: int) -> int:
    cost = 0
    for shift in (0, 2, 4, 6):
        delta = abs(((byte_a >> shift) & 3) - ((byte_b >> shift) & 3))
        cost += 6 if delta == 3 else delta
    return cost


def _reference_distance(a: str, b: str) -> int:
    """Header fields one by one, then every 2-bit bucket pair."""
    if len(a) != _DIGEST_LEN or len(b) != _DIGEST_LEN:
        raise ValueError("bad digest length")
    distance = 0
    if a[0:2] != b[0:2]:
        distance += 1
    distance += abs(int(a[2:4], 16) - int(b[2:4], 16))
    for pos in (4, 5):
        delta = abs(int(a[pos], 16) - int(b[pos], 16))
        distance += min(delta, 16 - delta)
    for byte_a, byte_b in zip(bytes.fromhex(a[6:]), bytes.fromhex(b[6:])):
        if byte_a != byte_b:
            distance += _reference_byte_cost(byte_a, byte_b)
    return distance


# -- drawn inputs -------------------------------------------------------------

_runs = st.lists(st.tuples(st.integers(0, 255), st.integers(1, 600)),
                 min_size=1, max_size=8).map(
    lambda runs: b"".join(bytes([value]) * length for value, length in runs))

#: Token lists shaped like ``MethodDigests.fuzzy_bytes``: JSON over opcode
#: names, normalised register ordinals and literal/symbol operands.
_token = st.tuples(
    st.sampled_from(["const/4", "add-int/lit8", "mul-int/lit8", "move",
                     "if-lez", "invoke-virtual", "return", "sget", "node"]),
    st.lists(st.integers(0, 15), max_size=3),
    st.one_of(st.none(),
              st.tuples(st.sampled_from(["l", "s", "t", "f", "m"]),
                        st.integers(-70000, 70000))),
).map(lambda tok: [tok[0], tok[1]] + ([] if tok[2] is None
                                      else [[tok[2][0], [tok[2][1]]]]))
_json_tokens = st.lists(_token, max_size=120).map(
    lambda tokens: json.dumps([["sig", ["I"], "I", 2]] + tokens,
                              separators=(",", ":")).encode("utf-8"))

_inputs = st.one_of(
    st.binary(max_size=4096),
    st.binary(min_size=MIN_FUZZY_LEN - 3, max_size=MIN_FUZZY_LEN + 8),
    _runs,
    _json_tokens,
)

_hex_digest = st.text(alphabet="0123456789abcdef",
                      min_size=_DIGEST_LEN, max_size=_DIGEST_LEN)


@st.composite
def _digest_pairs(draw):
    """Two digests: of drawn inputs, drawn hex, or one a few edits
    away from the other, so small and large distances both occur."""
    digests = [d for d in (fuzzy_digest(draw(_inputs)),
                           fuzzy_digest(draw(_json_tokens))) if d]
    first = draw(st.one_of(_hex_digest, st.sampled_from(digests))
                 if digests else _hex_digest)
    chars = list(first)
    for _ in range(draw(st.integers(0, 12))):
        chars[draw(st.integers(0, _DIGEST_LEN - 1))] = draw(
            st.sampled_from("0123456789abcdef"))
    second = draw(st.one_of(st.just("".join(chars)), _hex_digest))
    return first, second


class TestTableKernelsMatchLoopReferences:
    @settings(max_examples=120, deadline=None)
    @given(_inputs)
    def test_digest_equals_loop_reference(self, data):
        assert fuzzy_digest(data) == _reference_digest(data)

    @settings(max_examples=300, deadline=None)
    @given(_digest_pairs())
    def test_distance_equals_loop_reference(self, pair):
        a, b = pair
        assert fuzzy_distance(a, b) == _reference_distance(a, b)
        assert fuzzy_distance(b, a) == _reference_distance(b, a)

    def test_pair_cost_table_is_every_byte_pair(self):
        costs = fuzzy._PAIR_COSTS
        assert isinstance(costs, bytes) and len(costs) == 256 * 256
        assert all(costs[a * 256 + b] == _reference_byte_cost(a, b)
                   for a in range(256) for b in range(256))


def _blob(seed: int = 1, size: int = 400) -> bytes:
    # Deterministic pseudo-random bytes without the stdlib RNG, so the
    # test inputs are stable across python versions.
    out = bytearray()
    state = seed
    for _ in range(size):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        out.append(state & 0xFF)
    return bytes(out)


class TestDigest:
    def test_deterministic(self):
        data = _blob()
        assert fuzzy_digest(data) == fuzzy_digest(data)

    def test_shape(self):
        digest = fuzzy_digest(_blob())
        assert isinstance(digest, str)
        assert len(digest) == 70
        int(digest, 16)  # pure hex

    def test_short_input_has_no_digest(self):
        assert fuzzy_digest(b"") is None
        assert fuzzy_digest(b"x" * (MIN_FUZZY_LEN - 1)) is None

    def test_uniform_input_has_no_digest(self):
        # All-identical windows leave the bucket quartiles degenerate;
        # a digest of that would match everything.
        assert fuzzy_digest(b"\x00" * 400) is None

    def test_different_content_different_digest(self):
        assert fuzzy_digest(_blob(seed=1)) != fuzzy_digest(_blob(seed=2))


class TestDistance:
    def test_self_distance_zero(self):
        digest = fuzzy_digest(_blob())
        assert fuzzy_distance(digest, digest) == 0

    def test_symmetry(self):
        a = fuzzy_digest(_blob(seed=1))
        b = fuzzy_digest(_blob(seed=2))
        assert fuzzy_distance(a, b) == fuzzy_distance(b, a)

    def test_small_perturbation_closer_than_rewrite(self):
        base = _blob(seed=3, size=600)
        tweaked = bytearray(base)
        tweaked[10:14] = b"\x01\x02\x03\x04"  # a few bytes changed
        rewritten = _blob(seed=9, size=600)   # unrelated content
        d_base = fuzzy_digest(base)
        near = fuzzy_distance(d_base, fuzzy_digest(bytes(tweaked)))
        far = fuzzy_distance(d_base, fuzzy_digest(rewritten))
        assert near < far

    def test_rejects_malformed_digests(self):
        good = fuzzy_digest(_blob())
        with pytest.raises(ValueError):
            fuzzy_distance(good, "abc")
        with pytest.raises(ValueError):
            fuzzy_distance("", good)
