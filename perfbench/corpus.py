"""Seeded workload corpora, held as APK bytes, and the output oracle.

A corpus is a pure function of (workload, seed, app count): the same
arguments give byte-identical APKs and inventories.  It is generated
once and cached as JSON under the work directory, so later runs with
the same seed, and the host process of every run, load bytes instead
of regenerating.  No app carries a native library (``crash=0``
in the generator profile): natives are process-global registrations
that never travel with APK bytes.

The cache keeps the warm-up app and the timed apps in two files, so a
process under test reads only the warm-up app before it reports ready.
Only :func:`generate` imports the generator: the rest of this module is
what a process under test uses, and it loads nothing of the program.

The oracle is the generator's own inventory, which the code under test
never produces: every entry lists the methods a correct reveal must
carry with collected bodies (``must``) and the ones it must not
(``must_not``: code that never runs in that workload).
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import random

#: Seed kept out of every tuning run, so a later claim can be checked
#: on inputs its author never looked at.
HELD_OUT_SEED = 4409

#: The F-Droid coverage profile (``repro.benchsuite.fdroid_apps``)
#: without the native-crash share, as ``AppProfile`` arguments.
FDROID_PROFILE = {"gated": 0.50, "dead": 0.08, "crash": 0.0, "handler": 0.05}

#: ``plain-server``: 32 apps evenly spaced from 1k to 20k instructions.
#: Sizes are a fixed grid and the seed varies content and op order, so
#: the latency distribution, not just its mean, repeats across seeds;
#: even spacing keeps neighbouring apps near the tail percentile close
#: in size, so which of them lands on it matters little.
PLAIN_SIZES = tuple(1000 + 19000 * i // 31 for i in range(32))

#: ``force-library``: 24 apps from 600 to 1100 instructions, ~0.3 s a
#: reveal.  At these sizes the baseline run leaves fewer uncovered
#: branches than ``FORCE_MAX_PATHS``, so a second wave flips the gate.
FORCE_SIZES = tuple(600 + 500 * i // 23 for i in range(24))
FORCE_MAX_PATHS = 32

#: Part of every cache file name: bump it when what :func:`generate`
#: makes changes, so no run reads a stale corpus.
VERSION = 3


def _runall(classes) -> list[str]:
    return [f"{desc}->runAll()I" for desc in classes]


def _generated(package: str, size: int, seed: int, force: bool) -> dict:
    from repro.benchsuite.codegen import AppProfile, generate_app

    app = generate_app(package, size, seed=seed,
                       profile=AppProfile(**FDROID_PROFILE))
    must = list(app.plain_methods) + list(app.handler_methods)
    must_not = list(app.dead_methods)
    (must if force else must_not).extend(app.gated_methods)
    return {"app_id": package, "apk": app.apk.to_bytes(),
            "must": must, "must_not": must_not}


def _shared(package: str, seed: int, app_seed: int) -> dict:
    from repro.benchsuite.shared_corpus import build_shared_corpus_app

    app = build_shared_corpus_app(package, corpus_seed=seed,
                                  app_seed=app_seed)
    return {"app_id": package, "apk": app.apk.to_bytes(),
            "must": _runall(app.shared_classes + app.unique_classes),
            "must_not": []}


def generate(workload: str, seed: int, apps: int) -> dict:
    """``{"apps": [...], "warmup": entry}`` for one workload."""
    if workload == "plain-server":
        entries = [_generated(f"bench.plain.app{i}", size, seed * 1000 + i,
                              force=False)
                   for i, size in enumerate(PLAIN_SIZES)]
        warmup = _generated("bench.plain.warmup", 20000, seed * 1000 + 999,
                            force=False)
    elif workload == "force-library":
        entries = [_generated(f"bench.force.app{i}", size, seed * 1000 + i,
                              force=True)
                   for i, size in enumerate(FORCE_SIZES)]
        warmup = _generated("bench.force.warmup", 900, seed * 1000 + 999,
                            force=True)
    elif workload == "fleet-drain":
        entries = [_shared(f"bench.fleet.app{i}", seed, i)
                   for i in range(apps)]
        warmup = _shared("bench.fleet.warmup", seed, 10 ** 6)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"apps": entries, "warmup": warmup}


def digest(corpus: dict) -> str:
    """SHA-256 over every APK and inventory, in order."""
    h = hashlib.sha256()
    for entry in corpus["apps"] + [corpus["warmup"]]:
        h.update(entry["app_id"].encode())
        h.update(hashlib.sha256(entry["apk"]).digest())
        h.update(json.dumps([entry["must"], entry["must_not"]]).encode())
    return h.hexdigest()


#: The two files of a cached corpus, ``<stem>.<part>.json``.
PARTS = ("warmup", "apps")


def load(workload: str, seed: int, apps: int,
         work_dir: str) -> tuple[dict, str]:
    """The corpus (generated, or read back from the cache) and the
    stem of its cache files."""
    stem = os.path.join(work_dir, "corpus",
                        f"{workload}-{seed}-{apps}-v{VERSION}")
    if not all(os.path.exists(f"{stem}.{part}.json") for part in PARTS):
        corpus = generate(workload, seed, apps)
        os.makedirs(os.path.dirname(stem), exist_ok=True)
        for part in PARTS:
            entries = corpus["apps"] if part == "apps" else [corpus[part]]
            encoded = [dict(e, apk=base64.b64encode(e["apk"]).decode("ascii"))
                       for e in entries]
            tmp = f"{stem}.{part}.{os.getpid()}.tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(encoded, fh)
            os.replace(tmp, f"{stem}.{part}.json")
    return {"apps": read(stem, "apps"), "warmup": read(stem, "warmup")[0]}, stem


def read(stem: str, part: str) -> list[dict]:
    """One part of a cached corpus, its APKs decoded back to bytes."""
    with open(f"{stem}.{part}.json", encoding="utf-8") as fh:
        encoded = json.load(fh)
    return [dict(e, apk=base64.b64decode(e["apk"])) for e in encoded]


def check(dex, entry: dict) -> str:
    """Oracle verdict for one revealed DEX: ``""`` when it passes.

    A collected body is a method with more than two instructions; the
    reassembler turns linked-but-never-run methods into two-instruction
    default-return stubs, and never-linked classes are absent.
    """
    methods = {ref.signature: method for _cls, method, ref in dex.iter_methods()}

    def collected(signature: str) -> bool:
        method = methods.get(signature)
        return (method is not None and method.code is not None
                and len(method.code.instructions()) > 2)

    for signature in entry["must"]:
        if not collected(signature):
            return f"{signature} was not revealed"
    for signature in entry["must_not"]:
        if collected(signature):
            return f"{signature} was revealed but never runs"
    return ""


def schedule(count: int, ops: int, seed: int) -> list[int]:
    """Op order: the first ``ops`` of seeded shuffles of the corpus
    indices, one after another."""
    rng = random.Random(seed)
    order: list[int] = []
    while len(order) < ops:
        indices = list(range(count))
        rng.shuffle(indices)
        order.extend(indices)
    return order[:ops]


def ops_for(seconds: float, ops_per_second: float, count: int) -> int:
    """Whole corpus passes sized from ``--seconds`` alone, so runs on
    different commits do the same work."""
    return max(1, round(seconds * ops_per_second / count)) * count
