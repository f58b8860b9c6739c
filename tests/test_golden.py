import hashlib
import json
import platform
from pathlib import Path

import numpy
import pytest

from momentlab import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
# sha256 of each report's bytes, written by tests/golden/regenerate.py
COUNTING = json.loads((GOLDEN / "counting.json").read_text(encoding="utf-8"))
DECOUPLING = json.loads((GOLDEN / "decoupling.json").read_text(encoding="utf-8"))


def _check_pinned(pinned: dict, command: str, tmp_path) -> None:
    path = tmp_path / "report.json"
    # verify-all writes its report before a suite's budget exit; the report's budget entries pin that exit
    assert cli.main([*command.split(), "--output", str(path)]) in (cli.EXIT_OK, cli.EXIT_BUDGET)
    # a mismatch names both versions, as a new Python or numpy is the first suspect
    assert hashlib.sha256(path.read_bytes()).hexdigest() == pinned["reports"][command], (
        f"report bytes changed (pinned on Python {pinned['python']}, numpy {pinned['numpy']}; "
        f"running Python {platform.python_version()}, numpy {numpy.__version__})"
    )


@pytest.mark.parametrize("command", sorted(COUNTING["reports"]))
def test_counting_report_bytes_are_pinned(command, tmp_path):
    _check_pinned(COUNTING, command, tmp_path)


@pytest.mark.parametrize("command", sorted(DECOUPLING["reports"]))
def test_decoupling_report_bytes_are_pinned(command, tmp_path):
    _check_pinned(DECOUPLING, command, tmp_path)
