"""Aggregate throughput statistics for batch reveal runs.

A corpus run is judged by four numbers: how many apps resolved to each
outcome, how fast the batch went end-to-end (apps/sec against wall
clock, which credits parallelism), how much of it was served from cache,
and where the per-app latency distribution sits (p50/p95 — the paper's
single-app measurements generalised to a fleet).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.service.outcomes import ALL_STATUSES, STATUS_OK, RevealOutcome


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile; 0 for an empty sample."""
    if not values:
        return 0.0
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


@dataclass
class BatchReport:
    """Everything a batch run produced, plus the aggregate view.

    ``outcomes`` preserves the submission order of the jobs regardless
    of worker count or completion order — callers can zip it back
    against their corpus.
    """

    outcomes: list[RevealOutcome] = field(default_factory=list)
    wall_time_s: float = 0.0
    workers: int = 1

    # -- counts -------------------------------------------------------------

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def ok_count(self) -> int:
        return sum(1 for o in self.outcomes if o.status == STATUS_OK)

    @property
    def failed_count(self) -> int:
        return self.total - self.ok_count

    def status_counts(self) -> dict[str, int]:
        counts = {status: 0 for status in ALL_STATUSES}
        for outcome in self.outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        return counts

    # -- cache --------------------------------------------------------------

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.cache_hit)

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.total if self.total else 0.0

    # -- throughput ---------------------------------------------------------

    @property
    def apps_per_sec(self) -> float:
        return self.total / self.wall_time_s if self.wall_time_s > 0 else 0.0

    @property
    def latencies(self) -> list[float]:
        """Per-app pipeline latencies for apps that actually ran."""
        return [o.latency_s for o in self.outcomes if not o.cache_hit]

    @property
    def p50_latency_s(self) -> float:
        return percentile(self.latencies, 0.50)

    @property
    def p95_latency_s(self) -> float:
        return percentile(self.latencies, 0.95)

    # -- queue latency ------------------------------------------------------

    @property
    def queue_waits(self) -> list[float]:
        """Per-app submit→start waits, in submission order."""
        return [o.queue_wait_s for o in self.outcomes]

    @property
    def p50_queue_wait_s(self) -> float:
        return percentile(self.queue_waits, 0.50)

    @property
    def p95_queue_wait_s(self) -> float:
        return percentile(self.queue_waits, 0.95)

    # -- exploration --------------------------------------------------------

    def exploration_summary(self) -> dict:
        """Aggregate force-execution scheduler stats across the batch.

        Empty when no outcome ran the coverage module; otherwise the
        fleet view of the exploration: total paths replayed, UCBs
        discovered vs. covered, and the replays dedup saved.
        """
        explored = [o.exploration for o in self.outcomes if o.exploration]
        if not explored:
            return {}
        return {
            "apps_explored": len(explored),
            "paths_explored": sum(e.get("paths_explored", 0)
                                  for e in explored),
            "ucbs_discovered": sum(e.get("ucbs_discovered", 0)
                                   for e in explored),
            "ucbs_covered": sum(e.get("ucbs_covered", 0) for e in explored),
            "replays_saved_by_dedup": sum(
                e.get("replays_saved_by_dedup", 0) for e in explored
            ),
        }

    # -- corpus index -------------------------------------------------------

    def index_summary(self) -> dict:
        """Aggregate corpus-index dedup accounting across the batch.

        Empty when no outcome ran against a
        :class:`~repro.index.corpus.CorpusIndex`; otherwise how much
        reassembly work the index saved fleet-wide: bodies replayed
        from already-revealed apps vs emitted fresh, and how many of
        the batch's methods the corpus had seen before.
        """
        indexed = [o.index_stats for o in self.outcomes if o.index_stats]
        if not indexed:
            return {}
        emitted = sum(s.get("bodies_emitted", 0) for s in indexed)
        replayed = sum(s.get("bodies_replayed", 0) for s in indexed)
        total_bodies = emitted + replayed
        return {
            "apps_indexed": len(indexed),
            "bodies_emitted": emitted,
            "bodies_replayed": replayed,
            "replay_rate": (round(replayed / total_bodies, 4)
                            if total_bodies else 0.0),
            "corpus_known": sum(s.get("corpus_known", 0) for s in indexed),
            "corpus_new": sum(s.get("corpus_new", 0) for s in indexed),
        }

    # -- family clustering --------------------------------------------------

    def cluster_summary(self) -> dict:
        """Aggregate auto-labeling verdicts across the batch.

        Empty when no outcome ran against a
        :class:`~repro.cluster.store.ClusterStore`; otherwise the fleet
        view of labeling: how many apps got labeled, how many methods
        matched known corpus methods exactly (by structure) or as
        fuzzy near-misses, and which families the batch touched.
        """
        labeled = [o.cluster_stats for o in self.outcomes
                   if o.cluster_stats]
        if not labeled:
            return {}
        return {
            "apps_labeled": len(labeled),
            "apps_with_family": sum(1 for s in labeled if s.get("family")),
            "labels_assigned": sum(s.get("labels_assigned", 0)
                                   for s in labeled),
            "methods_known": sum(s.get("methods_known", 0)
                                 for s in labeled),
            "methods_near_miss": sum(s.get("methods_near_miss", 0)
                                     for s in labeled),
            "families": sorted({s["family"] for s in labeled
                                if s.get("family")}),
        }

    # -- presentation -------------------------------------------------------

    def summary(self) -> dict:
        """JSON-safe aggregate digest."""
        return {
            "total": self.total,
            "ok": self.ok_count,
            "failed": self.failed_count,
            "status_counts": self.status_counts(),
            "cache_hits": self.cache_hits,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "wall_time_s": round(self.wall_time_s, 6),
            "apps_per_sec": round(self.apps_per_sec, 3),
            "p50_latency_s": round(self.p50_latency_s, 6),
            "p95_latency_s": round(self.p95_latency_s, 6),
            "p50_queue_wait_s": round(self.p50_queue_wait_s, 6),
            "p95_queue_wait_s": round(self.p95_queue_wait_s, 6),
            "workers": self.workers,
            "exploration": self.exploration_summary(),
            "index": self.index_summary(),
            "cluster": self.cluster_summary(),
        }

    def render(self) -> str:
        """Human-readable aggregate block for CLIs and benchmarks."""
        counts = self.status_counts()
        breakdown = "  ".join(
            f"{status}={count}" for status, count in counts.items() if count
        ) or "(empty batch)"
        lines = [
            f"batch: {self.total} app(s) via {self.workers} "
            f"worker(s) in {self.wall_time_s:.2f}s "
            f"({self.apps_per_sec:.2f} apps/sec)",
            f"outcomes: {breakdown}",
            f"cache: {self.cache_hits}/{self.total} hits "
            f"({self.cache_hit_rate:.0%})",
            f"latency: p50={self.p50_latency_s * 1000:.1f}ms  "
            f"p95={self.p95_latency_s * 1000:.1f}ms",
        ]
        if self.queue_waits:
            lines.append(
                f"queue wait: p50={self.p50_queue_wait_s * 1000:.1f}ms  "
                f"p95={self.p95_queue_wait_s * 1000:.1f}ms"
            )
        exploration = self.exploration_summary()
        if exploration:
            lines.append(
                f"exploration: {exploration['paths_explored']} path(s) over "
                f"{exploration['apps_explored']} app(s), UCBs "
                f"{exploration['ucbs_covered']}/{exploration['ucbs_discovered']} "
                f"covered, {exploration['replays_saved_by_dedup']} replay(s) "
                f"saved by dedup"
            )
        index = self.index_summary()
        if index:
            total_bodies = index["bodies_replayed"] + index["bodies_emitted"]
            lines.append(
                f"index: {index['bodies_replayed']}/{total_bodies} "
                f"bodies replayed ({index['replay_rate']:.0%}), corpus knew "
                f"{index['corpus_known']} method(s), learned "
                f"{index['corpus_new']}"
            )
        cluster = self.cluster_summary()
        if cluster:
            lines.append(
                f"cluster: {cluster['apps_with_family']}/"
                f"{cluster['apps_labeled']} app(s) assigned to "
                f"{len(cluster['families'])} famil(ies), "
                f"{cluster['labels_assigned']} method label(s) "
                f"({cluster['methods_known']} known, "
                f"{cluster['methods_near_miss']} near-miss)"
            )
        return "\n".join(lines)
