"""Start-up cost and the lazily loaded public API.

Every ``stpa-loc`` command is a fresh process, so what ``import
stpa_loc.cli`` loads is paid on every command. The package resolves its
public names on first access, and the CLI imports the analysis, catalog
and report modules only inside the commands that run them.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stpa_loc


def run_fresh(code: str, *flags: str) -> str:
    """Stdout of ``code`` run in a new interpreter, with ``flags``, that imports this stpa_loc."""
    env = dict(os.environ, PYTHONPATH=str(Path(stpa_loc.__file__).parent.parent))
    return subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout


def test_cli_import_loads_only_the_front_end():
    out = run_fresh(
        "import sys, stpa_loc.cli; "
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('stpa_loc'))))"
    )
    assert out.split() == ["stpa_loc", "stpa_loc.cli", "stpa_loc.dsl", "stpa_loc.model"]


def test_ledger_commands_do_not_load_hashlib(tmp_path):
    # -S: the host's site hooks must not preload it; not -I, which ignores PYTHONPATH
    ledger = str(tmp_path / "ledger.jsonl")
    model = str(Path(stpa_loc.__file__).with_name("data") / "chat_monitoring.stpa")
    add = ["ledger", "add", ledger, "--model", model, "--id", "V-1", "--description", "drift",
           "--component", "ChatMonitor", "--severity", "high", "--source", "audit"]
    out = run_fresh(
        "import sys; from stpa_loc.cli import main; "
        f"codes = main({add!r}), main(['ledger', 'exposure', {ledger!r}, '--model', {model!r}]); "
        "print(*codes, 'hashlib' in sys.modules)",
        "-S",
    )
    assert '"open_count": 1' in out
    assert out.splitlines()[-1] == "0 0 False"


@pytest.mark.parametrize("name", sorted(set(stpa_loc.__all__) - {"__version__"}))
def test_public_name_is_the_object_its_home_module_defines(name):
    value = getattr(stpa_loc, name)
    assert getattr(importlib.import_module(value.__module__), name) is value


def test_home_modules_with_all_list_every_name_the_package_takes_from_them():
    missing = [
        f"{module}.{name}"
        for name, module in stpa_loc._HOME.items()
        if name not in getattr(importlib.import_module(f"stpa_loc.{module}"), "__all__", (name,))
    ]
    assert missing == []


def test_star_import_and_dir_cover_all_before_any_access():
    out = run_fresh(
        "import stpa_loc; listed = set(dir(stpa_loc)); bound = {}; "
        "exec('from stpa_loc import *', bound); "
        "print(sorted(set(stpa_loc.__all__) - listed), sorted(set(stpa_loc.__all__) - set(bound)))"
    )
    assert out == "[] []\n"


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(stpa_loc, "no_such_name")
    assert not hasattr(stpa_loc, "Vocabulary")
