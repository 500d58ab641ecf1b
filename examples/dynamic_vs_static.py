"""Table IV scenario: where dynamic taint trackers fall short.

Runs TaintDroid (emulator-hosted) and TaintART (device-hosted) analogues
on the five tricky DroidBench samples, then DexLego + HornDroid on the
revealed APKs — reproducing the paper's Table IV row by row.

Run:  python examples/dynamic_vs_static.py
"""

from repro import RevealConfig, horndroid, reveal_apk, taintart, taintdroid
from repro.benchsuite import TABLE_IV_SAMPLES, sample_by_name
from repro.runtime import EMULATOR, NEXUS_5X, AndroidRuntime, AppDriver

_TRUTH = {"Button1": 1, "Button3": 2, "EmulatorDetection1": 1,
          "ImplicitFlow1": 2, "PrivateDataLeak3": 2}


def run_tracker(sample, factory, device) -> int:
    tracker = factory()
    runtime = AndroidRuntime(device, max_steps=3_000_000)
    runtime.add_listener(tracker)
    AppDriver(runtime, sample.build_apk()).run_standard_session()
    return tracker.leak_count()


def main() -> None:
    tool = horndroid()
    print(f"{'sample':20s} {'leaks':>5s} {'TaintDroid':>10s} "
          f"{'TaintART':>8s} {'DexLego+HD':>10s}")
    print("-" * 60)
    for name in TABLE_IV_SAMPLES:
        sample = sample_by_name(name)
        td = run_tracker(sample, taintdroid, EMULATOR)
        ta = run_tracker(sample, taintart, NEXUS_5X)
        revealed = reveal_apk(
            sample.build_apk(), RevealConfig(device=sample.device)
        ).revealed_apk
        flows = tool.analyze(revealed).flows
        dl = len({(f.source_tag, f.sink_signature) for f in flows})
        print(f"{name:20s} {_TRUTH[name]:>5d} {td:>10d} {ta:>8d} {dl:>10d}")
    print("\nwhy each tool misses what it misses:")
    print("  Button1/3          widget storage launders runtime taint tags")
    print("  EmulatorDetection1 the sample behaves benignly on the emulator")
    print("  ImplicitFlow1      dynamic trackers don't follow control deps")
    print("  PrivateDataLeak3   the file round trip defeats everyone")


if __name__ == "__main__":
    main()
