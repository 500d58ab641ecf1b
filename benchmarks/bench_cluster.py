"""Family clustering — LSH nearest-neighbor vs the linear oracle.

Not a paper table: this measures the clustering layer the reproduction
adds on top of the reveal index.  Two experiments:

* ``lsh-vs-linear`` — a generated corpus of ≥1k method digests (100
  families of single-byte-tweak variants, sha256 counter-mode blobs so
  families are independent) queried both ways.  The acceptance bar —
  banded ``nearest`` ≥10x faster than the exhaustive scan at recall
  ≥0.95 — is asserted here and in ``tests/cluster/test_lsh.py``.
* ``reveal-and-label`` — a shared-library corpus revealed through a
  cluster-attached batch service, then family-clustered; the table
  carries member/label throughput and the family partition shape.
"""

import hashlib
import time

from benchmarks.conftest import quick_mode, run_once
from repro.benchsuite.shared_corpus import build_shared_corpus
from repro.cluster.lsh import LshIndex
from repro.cluster.store import ClusterStore
from repro.core import RevealConfig
from repro.harness.tables import render_table
from repro.index.fuzzy import fuzzy_digest
from repro.service import BatchRevealService, RevealJob

FAMILIES = 100
VARIANTS = 10
QUERIES = 25 if quick_mode() else 50
LIMIT = 5

APPS = 6 if quick_mode() else 20


def _blob(seed: int, size: int = 400) -> bytes:
    """Independent pseudo-random bytes per seed (sha256 counter mode)."""
    out = b""
    counter = 0
    while len(out) < size:
        out += hashlib.sha256(f"{seed}:{counter}".encode()).digest()
        counter += 1
    return out[:size]


def _variant(base: bytes, var: int) -> bytes:
    body = bytearray(base)
    body[(var * 31 + 7) % len(body)] ^= 0x5A
    return bytes(body)


def test_lsh_nearest_vs_linear(benchmark):
    lsh = LshIndex()
    count = 0
    for fam in range(FAMILIES):
        base = _blob(fam)
        for var in range(VARIANTS):
            digest = fuzzy_digest(_variant(base, var))
            assert digest is not None
            lsh.add(digest, ref=count, sort_key=(count,))
            count += 1
    assert count >= 1000
    queries = [fuzzy_digest(_variant(_blob(fam), 97))
               for fam in range(0, FAMILIES, FAMILIES // QUERIES)]

    timings = {}

    def run():
        start = time.perf_counter()
        exact = [lsh.nearest(q, limit=LIMIT, exhaustive=True)
                 for q in queries]
        timings["linear_s"] = time.perf_counter() - start
        start = time.perf_counter()
        fast = [lsh.nearest(q, limit=LIMIT) for q in queries]
        timings["lsh_s"] = time.perf_counter() - start
        hits = sum(len({r for _, r in e} & {r for _, r in f})
                   for e, f in zip(exact, fast))
        timings["recall"] = hits / (LIMIT * len(queries))
        return timings

    run_once(benchmark, run)
    speedup = timings["linear_s"] / timings["lsh_s"]
    stats = lsh.stats()

    print()
    print(render_table(
        f"LSH nearest vs linear scan ({count} methods, "
        f"{len(queries)} queries, k={LIMIT})",
        ["Scan", "Wall", "Queries/s", "Recall"],
        [
            ["linear", f"{timings['linear_s'] * 1e3:.1f}ms",
             f"{len(queries) / timings['linear_s']:.0f}", "1.00"],
            ["lsh", f"{timings['lsh_s'] * 1e3:.1f}ms",
             f"{len(queries) / timings['lsh_s']:.0f}",
             f"{timings['recall']:.2f}"],
        ],
    ))
    print(f"speedup {speedup:.1f}x; {stats['buckets']} buckets "
          f"({stats['bands']} bands x {stats['band_width']} chars, "
          f"largest {stats['largest_bucket']})")

    # The acceptance bar rides in the benchmark too, not only in tests.
    assert timings["recall"] >= 0.95, timings
    assert speedup >= 10, timings


def test_reveal_and_label_throughput(benchmark, tmp_path):
    cluster_dir = str(tmp_path / "fam")
    apps = build_shared_corpus(APPS, methods_per_class=2)
    jobs = [RevealJob(app.package, app.apk) for app in apps]
    box = {}

    def run():
        service = BatchRevealService(
            config=RevealConfig(cluster_dir=cluster_dir), workers=1)
        box["report"] = service.reveal_batch(jobs)
        store = ClusterStore(cluster_dir, create=False)
        start = time.perf_counter()
        box["assignment"] = store.build_families()
        box["families_s"] = time.perf_counter() - start
        box["stats"] = store.stats()
        store.close()
        return box

    run_once(benchmark, run)
    report, stats = box["report"], box["stats"]
    assert report.ok_count == APPS
    summary = report.cluster_summary()

    print()
    print(render_table(
        f"Reveal + auto-label ({APPS} apps, "
        f"{apps[0].shared_fraction:.0%} shared methods)",
        ["Members", "Apps", "Labels", "Known", "Near-miss",
         "Families", "Cluster wall"],
        [[
            str(stats["members"]),
            str(stats["apps"]),
            str(summary["labels_assigned"]),
            str(summary["methods_known"]),
            str(summary["methods_near_miss"]),
            str(len(box["assignment"].families)),
            f"{box['families_s'] * 1e3:.1f}ms",
        ]],
    ))

    # Shared libraries make every app after the first label-able, and
    # the shared pool pulls the corpus into fewer families than apps.
    assert summary["apps_labeled"] == APPS
    assert summary["labels_assigned"] > 0
    assert 1 <= len(box["assignment"].families) <= APPS
