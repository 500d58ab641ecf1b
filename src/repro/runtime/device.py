"""Device profiles for the simulated runtime.

The paper runs DexLego on a physical LG Nexus 5X; device identity matters
for three experiments: EmulatorDetection samples only leak on real
hardware, one DroidBench sample only leaks on tablets (the paper's single
missed flow), and sources (IMEI, location, SSID) read device state.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DeviceProfile:
    """Identity and sensor state of the simulated device."""

    name: str
    model: str
    fingerprint: str
    brand: str
    hardware: str
    is_emulator: bool
    form_factor: str  # "phone" or "tablet"
    imei: str = "352099001761481"
    sim_serial: str = "8901260222780227227"
    subscriber_id: str = "310260000000000"
    phone_number: str = "+15551234567"
    latitude: float = 42.3314
    longitude: float = -83.0458
    ssid: str = "compass-lab-wifi"
    android_id: str = "9774d56d682e549c"


NEXUS_5X = DeviceProfile(
    name="nexus5x",
    model="Nexus 5X",
    fingerprint="google/bullhead/bullhead:6.0/MDA89E/2294819:user/release-keys",
    brand="google",
    hardware="bullhead",
    is_emulator=False,
    form_factor="phone",
)

EMULATOR = DeviceProfile(
    name="emulator",
    model="sdk_gphone_x86",
    fingerprint="generic/sdk/generic:6.0/MASTER/eng.build:eng/test-keys",
    brand="generic",
    hardware="goldfish",
    is_emulator=True,
    form_factor="phone",
    imei="000000000000000",
)

TABLET = DeviceProfile(
    name="tablet",
    model="Pixel C",
    fingerprint="google/ryu/dragon:6.0/MXB48J/2362199:user/release-keys",
    brand="google",
    hardware="dragon",
    is_emulator=False,
    form_factor="tablet",
)
