"""Banded LSH over fuzzy digests: recall and speedup vs the oracle.

The acceptance bar from the clustering work: on a >=1k-method corpus,
``LshIndex.nearest`` must be >=10x faster than the exhaustive linear
scan while keeping recall >=0.95 against it.  The corpus generator
below produces *independent* families — sha256 counter-mode blobs, not
an LCG (different LCG seeds share one orbit, which correlates
"unrelated" digests and floods the buckets) — with single-byte-tweak
variants inside each family, the regime banded LSH is built for.
"""

import hashlib
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.lsh import DEFAULT_BANDS, LshIndex
from repro.index.fuzzy import _DIGEST_LEN, fuzzy_digest, fuzzy_distance


def _blob(seed: int, size: int = 400) -> bytes:
    """Independent pseudo-random bytes per seed (sha256 counter mode)."""
    out = b""
    counter = 0
    while len(out) < size:
        out += hashlib.sha256(f"{seed}:{counter}".encode()).digest()
        counter += 1
    return out[:size]


def _variant(base: bytes, var: int) -> bytes:
    """One family member: the base with a single byte flipped."""
    body = bytearray(base)
    body[(var * 31 + 7) % len(body)] ^= 0x5A
    return bytes(body)


def _family_corpus(families: int, variants: int) -> list[str]:
    digests = []
    for fam in range(families):
        base = _blob(fam)
        for var in range(variants):
            digest = fuzzy_digest(_variant(base, var))
            assert digest is not None
            digests.append(digest)
    return digests


class TestLshIndex:
    def test_rejects_malformed_digests(self):
        lsh = LshIndex()
        with pytest.raises(ValueError):
            lsh.add("abc", ref=0)
        with pytest.raises(ValueError):
            lsh.nearest("abc")

    def test_rejects_bands_not_dividing_body(self):
        with pytest.raises(ValueError):
            LshIndex(bands=7)
        with pytest.raises(ValueError):
            LshIndex(bands=0)

    def test_self_is_its_own_nearest(self):
        lsh = LshIndex()
        digests = _family_corpus(families=10, variants=1)
        for i, digest in enumerate(digests):
            lsh.add(digest, ref=i, sort_key=(i,))
        for i, digest in enumerate(digests):
            results = lsh.nearest(digest, limit=1)
            assert results == [(0, i)]

    def test_zero_limit_returns_nothing(self):
        lsh = LshIndex()
        digest = fuzzy_digest(_blob(1))
        lsh.add(digest, ref=0)
        assert lsh.nearest(digest, limit=0) == []

    def test_sparse_corpus_matches_the_oracle(self):
        # Fewer banded candidates than the limit: the scan must widen
        # to the whole corpus and return exactly what the oracle does.
        lsh = LshIndex()
        digests = _family_corpus(families=8, variants=1)
        for i, digest in enumerate(digests):
            lsh.add(digest, ref=i, sort_key=(i,))
        probe = fuzzy_digest(_blob(999))
        assert lsh.nearest(probe, limit=5) == \
            lsh.nearest(probe, limit=5, exhaustive=True)

    def test_accept_filters_before_the_fallback(self):
        lsh = LshIndex()
        digests = _family_corpus(families=6, variants=1)
        for i, digest in enumerate(digests):
            lsh.add(digest, ref=i, sort_key=(i,))
        even = lsh.nearest(digests[0], limit=6,
                           accept=lambda ref: ref % 2 == 0)
        assert [ref for _, ref in even] and \
            all(ref % 2 == 0 for _, ref in even)

    def test_stats_shape(self):
        lsh = LshIndex()
        for i, digest in enumerate(_family_corpus(families=4, variants=2)):
            lsh.add(digest, ref=i)
        stats = lsh.stats()
        assert stats["items"] == 8
        assert stats["bands"] == DEFAULT_BANDS
        assert stats["bands"] * stats["band_width"] == 64
        assert stats["largest_bucket"] >= 2  # family variants collide


class TestRecallAndSpeedup:
    """The headline acceptance criterion, asserted on 1000 methods."""

    FAMILIES = 100
    VARIANTS = 10
    QUERIES = 50
    LIMIT = 5

    @pytest.fixture(scope="class")
    def corpus(self):
        digests = _family_corpus(self.FAMILIES, self.VARIANTS)
        assert len(digests) >= 1000
        lsh = LshIndex()
        for i, digest in enumerate(digests):
            lsh.add(digest, ref=i, sort_key=(i,))
        # Queries are *fresh* variants — near a family, not in the index.
        queries = [fuzzy_digest(_variant(_blob(fam), 97))
                   for fam in range(0, self.FAMILIES,
                                    self.FAMILIES // self.QUERIES)]
        return lsh, queries

    def test_banding_prunes_the_corpus(self, corpus):
        lsh, queries = corpus
        sizes = [len(lsh.candidates(query)) for query in queries]
        # Candidates hover around the family size — far below the
        # corpus — and above the query limit, so the sparse fallback
        # (which would degrade to a full scan) stays out of the way.
        assert max(sizes) < len(lsh) // 10
        assert min(sizes) >= self.LIMIT

    def test_recall_at_least_095(self, corpus):
        lsh, queries = corpus
        hits = total = 0
        for query in queries:
            exact = {ref for _, ref in
                     lsh.nearest(query, limit=self.LIMIT, exhaustive=True)}
            fast = {ref for _, ref in lsh.nearest(query, limit=self.LIMIT)}
            hits += len(exact & fast)
            total += len(exact)
        assert total == self.QUERIES * self.LIMIT
        assert hits / total >= 0.95

    def test_at_least_10x_faster_than_linear(self, corpus):
        lsh, queries = corpus

        def best_of_three(exhaustive: bool) -> float:
            # The fastest of three loops: one pause (GC, a busy
            # neighbour) inside the ~4 ms banded loop cannot decide it.
            times = []
            for _ in range(3):
                start = time.perf_counter()
                for query in queries:
                    lsh.nearest(query, limit=self.LIMIT,
                                exhaustive=exhaustive)
                times.append(time.perf_counter() - start)
            return min(times)

        linear = best_of_three(exhaustive=True)
        banded = best_of_three(exhaustive=False)
        # Measured headroom is ~40x; 10x keeps the assertion robust
        # on loaded CI machines.
        assert banded * 10 <= linear, \
            f"LSH {banded:.4f}s vs linear {linear:.4f}s"


class _ReferenceLsh:
    """The item-level index :class:`LshIndex` replaced: one item per
    ``(digest, ref)``, every candidate item rescored."""

    def __init__(self, bands: int = DEFAULT_BANDS) -> None:
        self.bands = bands
        self.band_width = 64 // bands
        self._buckets: dict[tuple[int, str], list[int]] = {}
        self._items: list[tuple[str, object, tuple]] = []

    def __len__(self) -> int:
        return len(self._items)

    def _band_keys(self, digest: str) -> list[tuple[int, str]]:
        body = digest[6:]
        width = self.band_width
        return [(band, body[band * width:(band + 1) * width])
                for band in range(self.bands)]

    def add(self, digest: str, ref: object, sort_key: tuple = ()) -> None:
        index = len(self._items)
        self._items.append((digest, ref, tuple(sort_key)))
        for key in self._band_keys(digest):
            self._buckets.setdefault(key, []).append(index)

    def candidates(self, digest: str) -> list[int]:
        seen: set[int] = set()
        for key in self._band_keys(digest):
            seen.update(self._buckets.get(key, ()))
        return sorted(seen)

    def nearest(self, digest, limit=5, exhaustive=False, accept=None):
        if limit <= 0:
            return []
        items = self._items
        if exhaustive:
            pool = range(len(items))
        else:
            pool = self.candidates(digest)
            if accept is not None:
                pool = [i for i in pool if accept(items[i][1])]
            if len(pool) < limit:
                pool = range(len(items))
        scored = []
        for i in pool:
            item_digest, ref, sort_key = items[i]
            if accept is not None and not accept(ref):
                continue
            scored.append((fuzzy_distance(digest, item_digest), sort_key,
                           ref))
        scored.sort(key=lambda entry: (entry[0], entry[1]))
        return [(distance, ref) for distance, _, ref in scored[:limit]]

    def stats(self) -> dict:
        largest = max((len(v) for v in self._buckets.values()), default=0)
        return {
            "items": len(self._items),
            "bands": self.bands,
            "band_width": self.band_width,
            "buckets": len(self._buckets),
            "largest_bucket": largest,
        }


_HEX = "0123456789abcdef"


@st.composite
def _redrawn(draw, bases):
    """A digest related to a base, so candidate sets range from none
    to everything: a few characters redrawn (shares bands); one
    character nudged in every band (shares none, yet is close, so the
    sparse fallback decides whether it is found); or a random digest
    carrying one band of the base (a distant candidate)."""
    base = draw(st.sampled_from(bases))
    chars = list(base)
    how = draw(st.sampled_from(["redraw", "nudge", "graft"]))
    if how == "redraw":
        for _ in range(draw(st.integers(0, 24))):
            chars[draw(st.integers(0, _DIGEST_LEN - 1))] = draw(
                st.sampled_from(_HEX))
    elif how == "nudge":
        for band in range(DEFAULT_BANDS):
            pos = 6 + band * 4 + draw(st.integers(0, 3))
            chars[pos] = _HEX[(_HEX.index(chars[pos]) + 1) % 16]
    else:
        band = draw(st.integers(0, DEFAULT_BANDS - 1))
        kept = set(range(6 + band * 4, 10 + band * 4))
        chars = [c if i in kept else draw(st.sampled_from(_HEX))
                 for i, c in enumerate(chars)]
    return "".join(chars)


@st.composite
def _lsh_case(draw):
    bases = draw(st.lists(st.text(_HEX, min_size=_DIGEST_LEN,
                                  max_size=_DIGEST_LEN),
                          min_size=1, max_size=3))
    # Few distinct digests, many refs: most digests are shared.
    pool = draw(st.lists(_redrawn(bases), min_size=1, max_size=10))
    items = draw(st.lists(
        st.tuples(st.integers(0, len(pool) - 1), st.integers(0, 3)),
        max_size=60))
    query = draw(st.one_of(st.sampled_from(pool), _redrawn(bases)))
    modulus = draw(st.sampled_from([None, 2, 3]))
    return pool, items, query, modulus


def _nudged(digest: str) -> str:
    """One body character per band moved by one: no band shared, yet
    a small distance."""
    chars = list(digest)
    for band in range(DEFAULT_BANDS):
        pos = 6 + band * 4
        chars[pos] = _HEX[(_HEX.index(chars[pos]) + 1) % 16]
    return "".join(chars)


class TestMatchesItemLevelReference:
    def test_sparse_fallback_counts_refs_not_digests(self):
        # One candidate digest held by three refs fills limit 3, so the
        # scan stays banded and the closer, band-less digest is not
        # seen; limit 4 is sparse and widens to it.  Exactly what the
        # item-level index does.
        query = fuzzy_digest(_blob(7))
        graft = query[:6] + query[6:10] + fuzzy_digest(_blob(8))[10:]
        lsh, reference = LshIndex(), _ReferenceLsh()
        for index in (lsh, reference):
            for ref in range(3):
                index.add(graft, ref, sort_key=(ref,))
            index.add(_nudged(query), "near", sort_key=(9,))
        banded = lsh.nearest(query, limit=3)
        assert [ref for _, ref in banded] == [0, 1, 2]
        assert banded == reference.nearest(query, limit=3)
        widened = lsh.nearest(query, limit=4)
        assert widened[0][1] == "near"
        assert widened == reference.nearest(query, limit=4)

    @settings(max_examples=300, deadline=None)
    @given(case=_lsh_case(), limit=st.integers(1, 8),
           exhaustive=st.booleans())
    def test_nearest_returns_the_reference_list(self, case, limit,
                                                exhaustive):
        pool, items, query, modulus = case
        lsh, reference = LshIndex(), _ReferenceLsh()
        for ref, (digest_index, key) in enumerate(items):
            # Tied sort keys: only the key part is drawn, the ref
            # (insertion position) breaks ties like the reference.
            for index in (lsh, reference):
                index.add(pool[digest_index], ref, sort_key=(key,))
        accept = None if modulus is None \
            else (lambda ref: ref % modulus == 0)
        assert lsh.nearest(query, limit=limit, exhaustive=exhaustive,
                           accept=accept) == \
            reference.nearest(query, limit=limit, exhaustive=exhaustive,
                              accept=accept)
        assert lsh.candidates(query) == reference.candidates(query)
        assert len(lsh) == len(reference)
        assert lsh.stats() == reference.stats()
