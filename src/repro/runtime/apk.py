"""APK container: manifest, DEX files, assets and native libraries.

An :class:`Apk` is the unit packers transform and DexLego repacks.  It
serialises to a real ZIP (``classes.dex``, ``classes2.dex``, ...,
``assets/*``, ``manifest.json``) so packers can stash encrypted payloads
in assets exactly like their real counterparts.

Native code (the ``.so`` analogue) cannot be serialised as Python
callables, so APKs reference *named native libraries* resolved through a
process-wide :data:`NATIVE_LIBRARY_REGISTRY` — samples and packers
register their JNI tables there under a stable name.
"""

from __future__ import annotations

import io
import json
import zipfile
from dataclasses import dataclass, field
from typing import Callable

from repro.dex.reader import read_dex
from repro.dex.structures import DexFile
from repro.dex.writer import write_dex
from repro.errors import ReproError

# name -> {signature: impl}
NATIVE_LIBRARY_REGISTRY: dict[str, dict[str, Callable]] = {}


def register_native_library(name: str, impls: dict[str, Callable]) -> str:
    """Register (or replace) a named JNI table; returns the name."""
    NATIVE_LIBRARY_REGISTRY[name] = dict(impls)
    return name


@dataclass
class Apk:
    """One application package."""

    package: str
    main_activity: str
    dex_files: list[DexFile] = field(default_factory=list)
    assets: dict[str, bytes] = field(default_factory=dict)
    native_libraries: list[str] = field(default_factory=list)
    activities: list[str] = field(default_factory=list)
    version: str = "1.0"

    def __post_init__(self) -> None:
        if self.main_activity and self.main_activity not in self.activities:
            self.activities.insert(0, self.main_activity)

    @property
    def primary_dex(self) -> DexFile:
        if not self.dex_files:
            raise ReproError(f"APK {self.package} has no DEX file")
        return self.dex_files[0]

    def replace_primary_dex(self, dex: DexFile) -> None:
        """Swap ``classes.dex`` (the aapt repackaging step of §IV-C)."""
        if self.dex_files:
            self.dex_files[0] = dex
        else:
            self.dex_files.append(dex)

    def iter_native_impls(self):
        for name in self.native_libraries:
            impls = NATIVE_LIBRARY_REGISTRY.get(name)
            if impls is None:
                raise ReproError(f"native library {name!r} not registered")
            yield impls

    # -- serialisation -----------------------------------------------------

    def to_bytes(self) -> bytes:
        """The APK as a zip.  Each DEX is written with its pools sorted
        into binary-format order, which re-sorts this object's pools in
        place."""
        buffer = io.BytesIO()
        with zipfile.ZipFile(buffer, "w", zipfile.ZIP_DEFLATED) as zf:
            manifest = {
                "package": self.package,
                "version": self.version,
                "main_activity": self.main_activity,
                "activities": self.activities,
                "native_libraries": self.native_libraries,
            }
            entries = [("manifest.json",
                        json.dumps(manifest, indent=2).encode("utf-8"))]
            for i, dex in enumerate(self.dex_files):
                name = "classes.dex" if i == 0 else f"classes{i + 1}.dex"
                entries.append((name, write_dex(dex)))
            for path, data in sorted(self.assets.items()):
                entries.append((f"assets/{path}", data))
            for name, data in entries:
                # Fixed timestamps keep serialisation a pure function
                # of content: equal APKs produce equal bytes (and equal
                # content-addressed artifact digests) across runs.
                info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
                info.compress_type = zipfile.ZIP_DEFLATED
                zf.writestr(info, data)
        return buffer.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "Apk":
        with zipfile.ZipFile(io.BytesIO(data)) as zf:
            manifest = json.loads(zf.read("manifest.json"))
            dex_files = []
            index = 1
            while True:
                name = "classes.dex" if index == 1 else f"classes{index}.dex"
                try:
                    dex_files.append(read_dex(zf.read(name)))
                except KeyError:
                    break
                index += 1
            assets = {
                info.filename[len("assets/"):]: zf.read(info.filename)
                for info in zf.infolist()
                if info.filename.startswith("assets/")
            }
        apk = cls(
            package=manifest["package"],
            main_activity=manifest["main_activity"],
            dex_files=dex_files,
            assets=assets,
            native_libraries=list(manifest.get("native_libraries", ())),
            activities=list(manifest.get("activities", ())),
            version=manifest.get("version", "1.0"),
        )
        return apk

    def clone(self) -> "Apk":
        """Deep copy via serialisation (what a packer service receives)."""
        return Apk.from_bytes(self.to_bytes())
