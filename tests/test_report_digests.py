"""Every report byte, exit code and error line against a golden table.

The commands and the runner come from ``tools/report_digests.py``, which
also rewrites ``tests/report_digests.json`` for a deliberate report change.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("report_digests",
                                                  ROOT / "tools" / "report_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


report_digests = _tool()


def test_table_lists_exactly_the_command_set():
    table = json.loads(report_digests.TABLE.read_text())
    assert sorted(table) == sorted(map(report_digests.key, report_digests.COMMANDS))
    assert sum(argv[0] == "compare" for argv in report_digests.COMMANDS) == 121


def test_every_command_matches_its_golden_digests():
    table = json.loads(report_digests.TABLE.read_text())
    differ = [k for k, record in report_digests.digests().items() if record != table[k]]
    assert differ == []
