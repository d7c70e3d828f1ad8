"""Record one point of torell's performance trajectory as BENCH_<n>.json.

    python3 tools/bench_record.py 11

For each workload the benchmark's own runner, ``perfbench/run.py``, runs
once untraced for ``SECONDS`` (the end-to-end metrics) and once traced for
``TRACE_SECONDS`` (the per-layer counts and self times), both on ``SEED``.
These are fixed, so that the points of the trajectory compare.  Each
untraced run also records the pass count the runner prints on stderr
(``passes``, null when that line is missing), which ``peak_rss_mib`` grows
with, and whether ``PYTHONDONTWRITEBYTECODE`` was set
(``pythondontwritebytecode``), which decides whether the ``cli`` children
compile torell from source.  Then the
tier-1 tests run.  The file written at the repo root holds every run's
output, the Python version, the line counts of ``src/torell`` and of
``tests/oracles.py`` (where each closed form's old search moves), the
number of torell's public names (``len(torell.__all__)``), the tier-1 counts
and wall time, and whether any ``.pyc`` file under the repo was written
while it ran.  It names the measured sources twice: ``commit`` is
the checked-out HEAD, and ``tree`` is the git tree id of the files in the
index, with their contents as they were when the runs began and
``BENCH_*.json`` left out: stage new files before recording.  ``git diff
--stat <tree> <commit>`` then lists only BENCH files for the commit that
holds exactly the measured sources.  Nothing under
``perfbench/`` is changed or imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("surfaces", "covers", "flops", "cli")
SECONDS = 40
TRACE_SECONDS = 5
SEED = 1
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def run(command, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The JSON result the runner prints on its last line of stdout, with
    the pass count and the bytecode setting of an untraced run."""
    done = run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace)])
    if done.returncode != 0:
        raise SystemExit(f"error: perfbench/run.py --workload {workload} exited "
                         f"{done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not trace:
        found = re.search(rf"^{re.escape(workload)}: (\d+) passes of ", done.stderr, re.M)
        result["passes"] = int(found.group(1)) if found else None
        result["pythondontwritebytecode"] = bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))
    return result


def tier1() -> dict:
    """The tier-1 command with src on PYTHONPATH: its summary line, the
    counts in it and the wall time."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    done = run(TIER1, env=dict(os.environ, PYTHONPATH=path))
    wall = time.perf_counter() - start
    summary = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    counts = {kind: int(count) for count, kind in
              re.findall(r"(\d+) (passed|failed|errors?|skipped|xfailed|xpassed)", summary)}
    return {"command": "PYTHONPATH=src python -m pytest -q --continue-on-collection-errors",
            "exit_code": done.returncode, "summary": summary, "counts": counts,
            "wall_s": round(wall, 2)}


def public_names() -> int:
    """len(torell.__all__), read in a child process with src first on the
    path, so that the count is the checkout's and no bytecode is written."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = run([sys.executable, "-B", "-c", "import torell; print(len(torell.__all__))"],
               env=dict(os.environ, PYTHONPATH=path))
    if done.returncode != 0:
        raise SystemExit(f"error: importing torell exited {done.returncode}:\n{done.stderr}")
    return int(done.stdout)


def git(*args, env=None) -> str:
    return run(["git", *args], env=env).stdout.strip()


def source_tree() -> str:
    """The git tree id of the files in the repo's index, with their
    working-tree contents and BENCH files left out.  A copy of the index
    takes the changes, so the repo's own index stays as it is."""
    with tempfile.TemporaryDirectory() as tmp:
        index = Path(tmp) / "index"
        shutil.copyfile(ROOT / git("rev-parse", "--git-path", "index"), index)
        env = dict(os.environ, GIT_INDEX_FILE=str(index))
        git("add", "--update", "--", ".", env=env)
        git("rm", "--cached", "--quiet", "--ignore-unmatch", "--", "BENCH_*.json", env=env)
        return git("write-tree", env=env)


def pyc_written_since(start: float) -> bool:
    return any(f.stat().st_mtime >= start for f in ROOT.rglob("*.pyc"))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("number", type=int, help="n in BENCH_<n>.json")
    args = p.parse_args(argv)

    tree = source_tree()
    start = time.time()
    workloads = {}
    for name in WORKLOADS:
        print(f"{name}: untraced {SECONDS} s, traced {TRACE_SECONDS} s", file=sys.stderr)
        workloads[name] = {"untraced": bench(name, SEED, SECONDS, 0),
                           "traced": bench(name, SEED, TRACE_SECONDS, 1)}
    print("tier-1 tests", file=sys.stderr)
    tests = tier1()
    record = {
        "commit": git("rev-parse", "HEAD"),
        "tree": tree,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "bytecode_written": pyc_written_since(start),
        "src_torell_lines": sum(len(f.read_text().splitlines())
                                for f in sorted((ROOT / "src" / "torell").glob("*.py"))),
        "tests_oracles_lines": len((ROOT / "tests" / "oracles.py").read_text().splitlines()),
        "public_names": public_names(),
        "seed": SEED,
        "seconds": SECONDS,
        "trace_seconds": TRACE_SECONDS,
        "workloads": workloads,
        "tier1": tests,
    }
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
