"""Self-time arithmetic over nested spans, the tail-percentile rule,
the slowness window and the report arithmetic, on hand-built inputs."""

from __future__ import annotations

import math

import pytest

from spans import Tracer, covered_length, rollup
from stats import quartiles, spread, tail


def row(name, start, end, parent=-1, op=None, counts=None):
    return [name, start, end, parent, op, counts]


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
    assert covered_length([], 0, 10) == 0
    assert covered_length([(-5, 2), (9, 20)], 0, 10) == 3


def test_self_time_subtracts_the_union_of_children():
    rows = [
        row("op", 0.0, 10.0, op=1),       # 0
        row("b", 1.0, 4.0, parent=0),     # 1
        row("c", 3.0, 6.0, parent=0),     # 2 overlaps b
        row("d", 2.0, 3.0, parent=1),     # 3 nested in b
    ]
    r = rollup(rows, ops=[1], roots=("op",))
    assert r.self_s == pytest.approx({"op": 5.0, "b": 2.0, "c": 3.0, "d": 1.0})
    assert r.total_s == pytest.approx({"op": 10.0, "b": 3.0, "c": 3.0,
                                       "d": 1.0})
    assert r.root_s == pytest.approx(10.0)
    assert r.covered_s == pytest.approx(5.0)


def test_top_level_span_of_an_op_counts_toward_its_root():
    # A reveal on a server thread: no parent, same op as the client's root.
    rows = [
        row("op", 0.0, 10.0, op=7),
        row("stage", 2.0, 7.0, op=7, counts={"n": 3}),
        row("stage", 20.0, 21.0, op=8),   # another op: dropped
    ]
    r = rollup(rows, ops=[7], roots=("op",))
    assert r.self_s == pytest.approx({"op": 5.0, "stage": 5.0})
    assert r.counts == {"n": 3}
    assert r.covered_s == pytest.approx(5.0)


def test_ops_inherit_from_ancestors_and_loose_spans_need_the_window():
    rows = [
        row("root", 0.0, 4.0, op="job-1"),   # op stamped after the claim
        row("claim", 0.5, 1.0, parent=0),
        row("scan", 0.6, 0.9, parent=1),
        row("beat", 3.0, 3.5),               # op-less, inside the window
        row("beat", 9.0, 9.5),               # op-less, after it
        row("root", 5.0, 6.0, op="warm-up"),
    ]
    r = rollup(rows, ops=["job-1"], roots=("root",))
    assert r.calls == {"root": 1, "claim": 1, "scan": 1, "beat": 1}
    assert r.self_s["claim"] == pytest.approx(0.2)
    assert r.self_s["root"] == pytest.approx(3.5)


def test_tracer_dump_round_trips_through_rollup():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.op = "a"
    root = tracer.open("op")          # t=0
    inner = tracer.open("layer")      # t=1
    tracer.add(inner, "items", 2)
    tracer.close(inner)               # t=2
    tracer.close(root)                # t=3
    tracer.add(None, "loose")
    dump = tracer.dump()
    assert dump["loose"] == {"loose": 1}
    r = rollup(dump["spans"], ops=["a"], roots=("op",))
    assert r.self_s == pytest.approx({"op": 2.0, "layer": 1.0})
    assert r.counts == {"items": 2}


def test_tail_leaves_exactly_ten_samples_beyond():
    assert tail(range(10)) is None
    value, pct, n = tail(range(11))
    assert (value, n) == (0, 11)
    assert pct == pytest.approx(100 / 11)
    value, pct, n = tail(reversed(range(100)))
    assert (value, pct, n) == (89, 90.0, 100)
    samples = list(range(37))
    value, pct, n = tail(samples)
    assert sum(1 for s in samples if s > value) == 10
    # Any higher nearest-rank percentile would leave fewer than ten.
    assert n - math.ceil((pct + 1e-9) * n / 100) == 9


def test_too_few_latencies_still_report_the_failures():
    from loops import Measured
    from run import end_to_end

    m = Measured(setup_s=[1.0, 2.0, 3.0], latencies=[0.5, 0.7],
                 attempted=20, failures=["x"] * 18, wall_s=4.0, cpu_s=2.0,
                 peak_rss_mb=40.0)
    metrics, notes = end_to_end(m)
    assert metrics["latency_tail_s"] == (None, "s")
    assert metrics["latency_p50_s"] == (0.6, "s")
    assert metrics["apps_per_s"] == (0.5, "1/s")
    assert "fewer than 11" in notes[0]
    m.latencies = []
    assert end_to_end(m)[0]["latency_p50_s"] == (None, "s")


def test_set_gap_is_the_same_whichever_set_comes_first():
    from steadiness import gap

    assert gap(1.0, 1.3) == pytest.approx(0.3)
    assert gap(1.3, 1.0) == pytest.approx(0.3)
    assert gap(2.0, 2.0) == 0.0


def test_quartiles_and_spread():
    assert quartiles([5.0]) == (5.0, 5.0, 5.0)
    q1, q2, q3 = quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    assert q2 == 5.5
    assert spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx(
        (q3 - q1) / q2)


def test_slowness_window_ignores_a_stray_sample():
    from calibrate import smooth

    assert smooth([1.0, 1.0, 1.0, 5.0, 1.0, 1.0, 1.0], window=1) == [1.0] * 7
    # A spell of slowness moves the ops inside it, clipped at the ends.
    assert smooth([1.0, 1.0, 2.0, 2.0, 2.0], window=1) == [
        1.0, 1.0, 2.0, 2.0, 2.0]
    assert smooth([3.0], window=5) == [3.0]


def test_schedule_is_seeded_whole_shuffles_cut_to_the_op_count():
    from corpus import schedule

    order = schedule(4, 6, seed=9)
    assert order == schedule(4, 6, seed=9)
    assert sorted(order[:4]) == [0, 1, 2, 3]
    assert len(order) == 6 and len(set(order[4:])) == 2
    assert schedule(4, 8, seed=9)[:6] == order
