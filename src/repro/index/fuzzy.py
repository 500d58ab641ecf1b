"""Pure-python TLSH-style locality-sensitive digest.

The real TLSH (Trend Micro Locality Sensitive Hash, as used by BANG's
dex ``UnpackParser``) is a C extension; this is a dependency-free
re-implementation of its shape for corpus similarity work:

* slide a 5-byte window over the input, hash six salted triplets per
  window into 128 buckets with a Pearson permutation table;
* split the bucket histogram at its quartiles and emit 2 bits per
  bucket (32-byte body);
* prefix a small header: a rolling Pearson checksum, the capped log of
  the input length and the two quartile ratios.

``fuzzy_distance`` scores two digests: 0 for identical input, small for
local edits, large for unrelated streams.  The exact bit layout is
*not* wire-compatible with TLSH — digests only compare against digests
produced by this module (the index stores its format version for that
reason).

Inputs shorter than :data:`MIN_FUZZY_LEN` bytes or with too little
bucket variety return ``None``: tiny methods hash to digests dominated
by the header, and every trivial getter would look like every other.

Both kernels are table-driven, so their inner loops run inside stdlib
calls instead of the interpreter: the digest slides all its windows at
once as whole-stream ``bytes.translate`` passes through per-salt
Pearson tables, chained by int XOR, and counts buckets with a
``Counter``; the distance looks body byte pairs up in a 256x256 cost
table.  Every table is a ``bytes`` object built at import from a few
whole-string operations.  The plain loop versions live in
``tests/index/test_fuzzy.py`` as the reference both kernels must match.
"""

from __future__ import annotations

from collections import Counter
from operator import getitem
from typing import Callable

MIN_FUZZY_LEN = 50
_WINDOW = 5
_BUCKETS = 128
_BODY_BYTES = _BUCKETS // 4  # 2 bits per bucket
#: header (checksum, log-length, q1/q2 ratio nibbles) -> 3 bytes of hex
_DIGEST_LEN = 6 + _BODY_BYTES * 2

# Six triplet selections per window, each with its own Pearson salt —
# mirrors TLSH's six (salt, byte, byte, byte) combinations.
_TRIPLETS = (
    (2, 0, 1, 2),
    (3, 0, 1, 3),
    (5, 0, 2, 3),
    (7, 0, 2, 4),
    (11, 0, 1, 4),
    (13, 0, 3, 4),
)


def _pearson_table() -> tuple[int, ...]:
    """A fixed pseudo-random permutation of 0..255 (seeded LCG shuffle)."""
    table = list(range(256))
    state = 1
    for i in range(255, 0, -1):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        j = state % (i + 1)
        table[i], table[j] = table[j], table[i]
    return tuple(table)


_TABLE = bytes(_pearson_table())
#: A Pearson step followed by the fold into the bucket range.
_TO_BUCKET = bytes(value % _BUCKETS for value in _TABLE)
#: Per triplet: its first Pearson step ``t[salt ^ w[x]]`` as a
#: translate table, and the window offsets ``x``, ``y``, ``z``.
_SALTED = tuple(
    (bytes(_TABLE[salt ^ byte] for byte in range(256)), x, y, z)
    for salt, x, y, z in _TRIPLETS
)


def _capped_log_length(length: int) -> int:
    value = 0
    threshold = 1
    while threshold < length and value < 255:
        threshold += max(1, threshold // 2)  # ~log base 1.5
        value += 1
    return value


def _xor_translate(lane: bytes, wide: int, table: bytes) -> bytes:
    """``table[lane[i] ^ other[i]]`` for every i, ``other`` as an int."""
    mixed = int.from_bytes(lane, "big") ^ wide
    return mixed.to_bytes(len(lane), "big").translate(table)


def fuzzy_digest(data: bytes) -> str | None:
    """Digest ``data`` into a hex string, or ``None`` when too short."""
    if len(data) < MIN_FUZZY_LEN:
        return None
    windows = len(data) - _WINDOW + 1
    # lanes[k][i] is byte k of window i, so one translate or XOR over a
    # lane does one Pearson step for every window at once.
    lanes = [bytes(data[k:k + windows]) for k in range(_WINDOW)]
    wide = [int.from_bytes(lane, "big") for lane in lanes]
    counts: Counter = Counter()
    for salted, x, y, z in _SALTED:
        step = _xor_translate(lanes[x].translate(salted), wide[y], _TABLE)
        counts.update(_xor_translate(step, wide[z], _TO_BUCKET))
    buckets = [counts[index] for index in range(_BUCKETS)]
    checksum = 0
    table = _TABLE
    for byte in lanes[0]:
        checksum = table[byte ^ checksum]
    ordered = sorted(buckets)
    q1 = ordered[_BUCKETS // 4 - 1]
    q2 = ordered[_BUCKETS // 2 - 1]
    q3 = ordered[(_BUCKETS * 3) // 4 - 1]
    if q3 == 0:
        return None  # degenerate histogram: not enough variety to rank
    header = (
        f"{checksum:02x}"
        f"{_capped_log_length(len(data)):02x}"
        f"{(q1 * 100 // q3) % 16:x}"
        f"{(q2 * 100 // q3) % 16:x}"
    )
    # q1 <= q2 <= q3, so a bucket's 2-bit code is how many it exceeds.
    codes = [(count > q1) + (count > q2) + (count > q3) for count in buckets]
    quads = [iter(codes)] * 4
    body = bytes(a | b << 2 | c << 4 | d << 6 for a, b, c, d in zip(*quads))
    return header + body.hex()


def _pair_costs() -> bytes:
    """``cost[a * 256 + b]``: the distance between body bytes a and b.

    A byte holds four 2-bit bucket codes; each code pair costs its
    difference, 6 for a jump across the full range (3).  Built as a
    nibble table, then widened to bytes by adding a high-nibble and a
    low-nibble 64 KiB table as big ints: no entry exceeds 24, so the
    sum never carries between bytes.
    """
    code = [[6 if abs(x - y) == 3 else abs(x - y) for y in range(4)]
            for x in range(4)]
    nibble = [bytes(code[a >> 2][b >> 2] + code[a & 3][b & 3]
                    for b in range(16)) for a in range(16)]
    spread = [b"".join(bytes((cost,)) * 16 for cost in row)
              for row in nibble]
    high = b"".join(spread[a >> 4] for a in range(256))
    low = b"".join(nibble[a & 15] * 16 for a in range(256))
    total = int.from_bytes(high, "big") + int.from_bytes(low, "big")
    return total.to_bytes(len(high), "big")


_PAIR_COSTS = _pair_costs()
#: ``_COST_ROWS[a][b]``: one row of the pair table per query byte.
_COST_ROWS = tuple(_PAIR_COSTS[a * 256:(a + 1) * 256] for a in range(256))
#: ``_RING[a][b]``: distance between quartile-ratio nibbles, which wrap.
_RING = tuple(bytes(min(abs(a - b), 16 - abs(a - b)) for b in range(16))
              for a in range(16))


def parse_digest(digest: str) -> tuple:
    """The fields :func:`fuzzy_distance` compares, decoded once.

    ``(checksum hex, log-length, q1 ratio, q2 ratio, body bytes)``;
    callers that score one digest many times keep this form.
    """
    if len(digest) != _DIGEST_LEN:
        raise ValueError(
            f"fuzzy digests must be {_DIGEST_LEN} hex chars, "
            f"got {len(digest)}"
        )
    return (digest[0:2], int(digest[2:4], 16), int(digest[4], 16),
            int(digest[5], 16), bytes.fromhex(digest[6:]))


def distance_from(digest: str) -> Callable[[tuple], int]:
    """``score(parsed)``: :func:`fuzzy_distance` from ``digest`` to a
    :func:`parse_digest` result, with the query's table rows picked
    once."""
    checksum, length, q1, q2, body = parse_digest(digest)
    ring1 = _RING[q1]
    ring2 = _RING[q2]
    rows = [_COST_ROWS[byte] for byte in body]

    def score(other: tuple) -> int:
        other_checksum, other_length, other_q1, other_q2, other_body = other
        return ((checksum != other_checksum)
                + abs(length - other_length)
                + ring1[other_q1] + ring2[other_q2]
                + sum(map(getitem, rows, other_body)))
    return score


def fuzzy_distance(a: str, b: str) -> int:
    """Distance between two digests from :func:`fuzzy_digest`.

    Sums the header differences (checksum mismatch, length-band and
    quartile-ratio deltas) with the per-bucket 2-bit differences; a
    bucket jumping across the full quartile range (difference of 3)
    costs 6, as in TLSH.
    """
    if len(a) != _DIGEST_LEN or len(b) != _DIGEST_LEN:
        raise ValueError(
            f"fuzzy digests must be {_DIGEST_LEN} hex chars, "
            f"got {len(a)} and {len(b)}"
        )
    return distance_from(a)(parse_digest(b))
