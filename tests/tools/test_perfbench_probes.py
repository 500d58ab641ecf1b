"""``perfbench/probes.py`` finds every boundary the traced ledger times.

``install`` patches each probed class, module function and method by
name, so a deleted or renamed one fails here, in the tier-1 suite,
rather than in the next traced perfbench run.
"""

import os
import subprocess
import sys

_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                     os.pardir, os.pardir))


def test_every_probe_target_exists():
    # A fresh interpreter: install() patches the classes it wraps.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(_ROOT, "src"), os.path.join(_ROOT, "perfbench")]))
    result = subprocess.run(
        [sys.executable, "-c",
         "import probes, spans; probes.install(spans.Tracer())"],
        cwd=_ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
