import hashlib
import json
import platform
from pathlib import Path

import numpy
import pytest

from momentlab import cli

# sha256 of each counting report's bytes, written by tests/golden/regenerate.py
COUNTING = json.loads((Path(__file__).resolve().parent / "golden" / "counting.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", sorted(COUNTING["reports"]))
def test_counting_report_bytes_are_pinned(command, tmp_path):
    path = tmp_path / "report.json"
    assert cli.main([*command.split(), "--output", str(path)]) == 0
    # a mismatch names both versions, as a new Python or numpy is the first suspect
    assert hashlib.sha256(path.read_bytes()).hexdigest() == COUNTING["reports"][command], (
        f"report bytes changed (pinned on Python {COUNTING['python']}, numpy {COUNTING['numpy']}; "
        f"running Python {platform.python_version()}, numpy {numpy.__version__})"
    )
