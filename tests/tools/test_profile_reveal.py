"""``tools/profile_reveal.py`` runs and profiles what a front end runs."""

import importlib.util
import os

_TOOL = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                     "tools", "profile_reveal.py")


def _load():
    spec = importlib.util.spec_from_file_location("profile_reveal", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_profiles_reveal_one(capsys):
    assert _load().main(["--top", "5"]) == 0
    out = capsys.readouterr().out
    assert "status=ok" in out
    assert "reveal_one" in out


def test_unknown_app_exits_2(capsys):
    assert _load().main(["--app", "no.such.app"]) == 2
