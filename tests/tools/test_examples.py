"""Every script under ``examples/`` runs standalone and exits 0.

Each runs in a fresh interpreter with ``src`` on ``PYTHONPATH``, as a
reader would run it from the repo root.  ``force_execution_coverage.py``
is left out: it fuzzes and force-executes whole generated apps, which
takes far longer than the rest of this suite's examples together.
"""

import os
import subprocess
import sys

import pytest

_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                     os.pardir, os.pardir))
_EXAMPLES = os.path.join(_ROOT, "examples")
_SLOW = {"force_execution_coverage.py"}


def _examples():
    return sorted(name for name in os.listdir(_EXAMPLES)
                  if name.endswith(".py") and name not in _SLOW)


@pytest.mark.parametrize("name", _examples())
def test_example_runs(name):
    env = dict(os.environ, PYTHONPATH=os.path.join(_ROOT, "src"))
    result = subprocess.run(
        [sys.executable, os.path.join(_EXAMPLES, name)],
        cwd=_ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
