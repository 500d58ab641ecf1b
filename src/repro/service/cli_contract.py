"""The exit-code contract every ``repro.service`` subcommand honours.

Calling scripts (CI, the Makefile smoke targets, fleet supervisors)
branch on three exit statuses, so the meaning of each is defined once
here instead of re-invented per subcommand:

* :data:`EXIT_OK` (0) — the command did its work and nothing
  hard-failed.
* :data:`EXIT_FAILURES` (1) — the work ran, but some of it failed:
  hard reveal failures in a batch, failed jobs left in a drained
  store, a ``watch --follow`` that timed out with jobs still pending.
* :data:`EXIT_USAGE` (2) — the command never got to the work: usage
  errors and corrupt or missing input (no store at the path, a
  foreign-format journal, an unreadable or malformed archive, a
  malformed digest).  Always accompanied by a **one-line** diagnostic
  on stderr — never a traceback.

Guard paths return ``usage_error(...)`` / ``failure(...)`` so the
stderr line and the status code cannot drift apart; happy paths return
:func:`exit_for_failures` over their failure count.
"""

from __future__ import annotations

import sys

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_USAGE = 2


def _one_line(message: str) -> str:
    """Collapse whatever exception text arrived into one stderr line."""
    return " ".join(str(message).split())


def usage_error(message: str) -> int:
    """Diagnose unusable input: one stderr line, exit status 2."""
    print(_one_line(message), file=sys.stderr)
    return EXIT_USAGE


def failure(message: str | None = None) -> int:
    """Report failed work: optional one stderr line, exit status 1."""
    if message:
        print(_one_line(message), file=sys.stderr)
    return EXIT_FAILURES


def exit_for_failures(failed_count: int) -> int:
    """The happy-path epilogue: 1 when anything hard-failed, else 0."""
    return EXIT_FAILURES if failed_count else EXIT_OK
