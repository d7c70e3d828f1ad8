"""Golden digests of torell's reports: exit code, stdout and stderr.

    python3 tools/report_digests.py          # print commands whose digests differ
    python3 tools/report_digests.py --write  # rewrite tests/report_digests.json

Each command in ``COMMANDS`` runs through ``torell.cli.main`` in this
process, with ``TORELL_CORPUS`` unset so that fan names read the built-in
corpus.  A command's record is its exit code and the sha256 of what it
wrote on standard output and on standard error.  ``tests/test_report_digests.py``
checks the same commands against the same table, so a report byte that
changes shows up as a named command.  Rewrite the table only for a
deliberate report change, and list each changed command in CHANGES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "report_digests.json"
sys.path.insert(0, str(ROOT / "src"))

from torell import cli  # noqa: E402
from torell.fan_io import CORPUS_ENV, corpus_names  # noqa: E402

_FLIP_IDS = ("green", "red", "0", "purple")
_GENERATORS = ("1/2,1/2,0;1/2,0,1/2", "1/4,3/4", "2/4,-1/2", "1/3,1/3,1/3",
               "1/5,2/5,2/5", "1/2,1/2;1/3,2/3", "1/0,1", "a,b", "1e4400,0",
               "1e10000000,0")


@contextlib.contextmanager
def _builtin_corpus():
    """Unset TORELL_CORPUS for the block, so fan names read the built-in corpus."""
    saved = os.environ.pop(CORPUS_ENV, None)
    try:
        yield
    finally:
        if saved is not None:
            os.environ[CORPUS_ENV] = saved


def _commands() -> list[tuple[str, ...]]:
    with _builtin_corpus():
        names = corpus_names()
    commands = []
    for name in names:
        commands += [("validate", name), ("invariant", name, "--ladder"),
                     *(("gkm", name, "--format", fmt) for fmt in ("json", "text", "dot")),
                     ("cech", name)]
    commands += [("compare", a, b) for a in names for b in names]
    commands.append(("flop", "mu2-kernel", "--list"))
    commands += [("flop", "mu2-kernel", "--apply", flip) for flip in _FLIP_IDS]
    commands += [("mckay-example",), ("mckay-example", "--rank", "3")]
    commands += [("mckay-example", "--generators", g) for g in _GENERATORS]
    return commands


COMMANDS = _commands()


def key(argv) -> str:
    return shlex.join(argv)


def run(argv) -> dict:
    """Run one command in process and digest what it did."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"exit": code,
            "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest()}


def digests() -> dict:
    with _builtin_corpus():
        return {key(argv): run(argv) for argv in COMMANDS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {TABLE.name}")
    args = parser.parse_args(argv)
    table = digests()
    if args.write:
        TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(table)} commands to {TABLE.relative_to(ROOT)}")
        return 0
    expected = json.loads(TABLE.read_text())
    differ = [k for k in sorted(set(table) | set(expected))
              if table.get(k) != expected.get(k)]
    for k in differ:
        print(k)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
