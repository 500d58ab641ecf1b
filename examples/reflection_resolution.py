"""Reflection scenario: advanced reflective calls become direct calls.

Five ways malware hides a reflective target (paper §IV-D): runtime
concatenation, XOR-encrypted names, ``getMethods()`` indexing with no
string at all, char-array assembly, and a name computed in ``<clinit>``.
Static tools fail on every one of them; DexLego's runtime rewrite turns
each into a direct call through a generated bridge.

Run:  python examples/reflection_resolution.py
"""

from repro import droidsafe, flowdroid, horndroid, reveal_apk
from repro.benchsuite import sample_by_name

ADVANCED = ["ReflectAdv0", "ReflectAdv1", "ReflectAdv2",
            "ReflectAdv3", "ReflectAdv4"]


def main() -> None:
    tools = [flowdroid(), droidsafe(), horndroid()]
    print(f"{'sample':14s} {'technique':42s} "
          f"{'orig FD/DS/HD':>14s} {'revealed':>9s}")
    print("-" * 86)
    for name in ADVANCED:
        sample = sample_by_name(name)
        apk = sample.build_apk()
        original = "/".join(
            "Y" if t.analyze(apk).detected else "n" for t in tools
        )
        revealed = reveal_apk(apk).revealed_apk
        after = "/".join(
            "Y" if t.analyze(revealed).detected else "n" for t in tools
        )
        print(f"{name:14s} {sample.description[:42]:42s} "
              f"{original:>14s} {after:>9s}")

    # Show what the rewrite actually emits.
    sample = sample_by_name("ReflectAdv2")
    result = reveal_apk(sample.build_apk())
    dex = result.reassembled_dex
    from repro.core import INSTRUMENT_CLASS

    bridge_cls = dex.find_class(INSTRUMENT_CLASS)
    print(f"\ngenerated bridge methods on {INSTRUMENT_CLASS}:")
    for method in bridge_cls.all_methods():
        ref = dex.method_ref(method.method_idx)
        if ref.name.startswith("bridge"):
            print(f"  {ref.signature}")


if __name__ == "__main__":
    main()
