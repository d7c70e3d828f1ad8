"""Benchmark of torell: one workload per run, end-to-end or traced.

Run from the root of a checkout (torell is imported from ``src``):

    python3 perfbench/run.py --workload surfaces --seed 1 --seconds 20 --trace 0

The run sets up its inputs several times (``setup_s`` is the median),
runs one warm-up pass of the operation list with every result checked
independently, then repeats whole passes for ``--seconds`` seconds, each
result compared with the checked warm-up result.  One caller, one thread,
at most one child process at a time.  The last line of standard output is
the JSON result; progress and problems go to standard error.

With ``--trace 1`` the run instead records spans around torell's public
functions (see ``tracing.py``), alternating untraced and traced passes, and
reports per-layer counts and self times for one set-up plus one pass,
together with the tracing overhead.  Spans are written to
``perfbench/out/trace-<workload>.json.gz``.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Set-up is repeated at least SETUP_MIN times and until SETUP_SECONDS have
# passed (at most SETUP_MAX times); setup_s is the median.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 25, 2.0
IMPORT_PROBES = 5
TAIL_BEYOND = 10          # the tail percentile leaves this many samples above it


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("surfaces", "covers", "flops", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_torell(root: Path):
    """torell from this checkout's ``src``, never from anywhere else."""
    src = root / "src"
    if not (src / "torell" / "__init__.py").is_file():
        raise SystemExit(f"error: no torell sources under {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    import torell
    if src.resolve() not in Path(torell.__file__).resolve().parents:
        raise SystemExit(f"error: imported torell from {torell.__file__}, not {src}")


class Pass:
    """Latencies (s) of the successful operations, and what went wrong."""

    def __init__(self):
        self.state = {}
        self.latency = {}
        self.busy = 0.0
        self.failed = []
        self.incorrect = []


def run_pass(ops, reference=None) -> Pass:
    """Run every operation once.  Without a reference each result gets its
    independent check; with one it must equal the checked result."""
    from checks import CheckFailed

    out = Pass()
    clock = time.perf_counter
    for op in ops:
        start = clock()
        try:
            result = op.run(out.state)
        except Exception as exc:          # a failure of the program under test
            out.busy += clock() - start
            out.failed.append(f"{op.label}: {type(exc).__name__}: {exc}")
            continue
        elapsed = clock() - start
        out.busy += elapsed
        reason = op.failure(result) if op.failure else None
        if reason:
            out.failed.append(f"{op.label}: {reason}")
            continue
        out.state[op.label] = result
        out.latency[op.label] = elapsed
        if reference is None:
            try:
                op.check(result)
            except CheckFailed as exc:
                out.incorrect.append(f"{op.label}: {exc}")
        elif reference.get(op.label) != result:
            out.incorrect.append(f"{op.label}: result differs from the checked warm-up result")
    return out


def build(workloads, name, seed, ctx, repeat=True):
    """Set the workload up, repeatedly when asked; returns it and the times."""
    times = []
    while not times or repeat and len(times) < SETUP_MAX and (
            len(times) < SETUP_MIN or sum(times) < SETUP_SECONDS):
        workload = None               # let the previous set-up go first
        gc.collect()
        start = time.perf_counter()
        workload = workloads.WORKLOADS[name](seed, ctx)
        times.append(time.perf_counter() - start)
    return workload, times


def warm_up(workload, problems):
    gc.collect()
    first = run_pass(workload.ops)
    problems += first.incorrect
    from checks import CheckFailed
    for check in workload.final_checks:
        try:
            check(first.state)
        except CheckFailed as exc:
            problems.append(f"final check: {exc}")
    return first


def latency_metrics(passes, ops):
    """Per-operation medians over the passes, then their median and tail."""
    per_op = []
    for op in ops:
        samples = [p.latency[op.label] for p in passes if op.label in p.latency]
        if samples:
            per_op.append(statistics.median(samples) * 1000)
    per_op.sort()
    tail = per_op[-(TAIL_BEYOND + 1)] if len(per_op) > TAIL_BEYOND else per_op[-1]
    return statistics.median(per_op), tail, len(per_op)


def peak_rss_mib(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def report(passes, ops, metrics, problems):
    failed = sum(len(p.failed) for p in passes)
    for line in sorted(set(problems))[:20]:
        print("problem:", line, file=sys.stderr)
    for line in sorted({f for p in passes for f in p.failed}):
        print("failed:", line, file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": len(ops) * len(passes),
                      "failed": failed, "metrics": metrics}))


def measure(args, root, workloads):
    ctx = workloads.Context(root)
    workload, setup_times = build(workloads, args.workload, args.seed, ctx)
    ops, problems = workload.ops, []
    reference = warm_up(workload, problems).state
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < args.seconds:
        gc.collect()
        current = run_pass(ops, reference)
        problems += current.incorrect
        current.state = None
        passes.append(current)
    p50, tail, samples = latency_metrics(passes, ops)
    completed = statistics.median(len(p.latency) / p.busy for p in passes)
    rss = peak_rss_mib(resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF)
    print(f"{args.workload}: {len(passes)} passes of {len(ops)} operations, "
          f"{samples} latency samples, tail leaves {TAIL_BEYOND} above it", file=sys.stderr)
    metrics = {
        "ops_per_s": {"value": completed, "unit": "1/s"},
        "op_ms_p50": {"value": p50, "unit": "ms"},
        "op_ms_tail": {"value": tail, "unit": "ms"},
        "peak_rss_mib": {"value": rss, "unit": "MiB"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
    }
    report(passes, ops, metrics, problems)


def import_ms(root: Path) -> float:
    """Cost of ``import torell.cli`` in a fresh interpreter, less a bare one."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def child(code):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True)
        return time.perf_counter() - start

    bare, loaded = [], []
    for _ in range(IMPORT_PROBES):
        bare.append(child("pass"))
        loaded.append(child("import torell.cli"))
    return (statistics.median(loaded) - statistics.median(bare)) * 1000


def write_trace(path: Path, args, recorder, values) -> None:
    """Spans of the traced set-up and the first traced pass, as JSON lines:
    a header, then one [name, parent line, start ns, end ns] per span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    names = sorted(recorder.names, key=recorder.names.get)
    s = recorder.spans
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "names": names, "layers": values}) + "\n")
        for i in range(0, len(s), 4):
            fh.write(f"[{s[i]},{s[i + 1]},{s[i + 2]},{s[i + 3]}]\n")


def trace(args, root, workloads):
    import tracing

    ctx = workloads.Context(root, in_process=args.workload == "cli")
    recorder = tracing.Recorder()
    restore = tracing.install(recorder)
    try:
        workload, _ = build(workloads, args.workload, args.seed, ctx, repeat=False)
    finally:
        tracing.uninstall(restore)
    setup = (recorder.calls.copy(), recorder.self_ns.copy(), recorder.amounts.copy())
    recorder.reset_counts()
    ops, problems = workload.ops, []
    reference = warm_up(workload, problems).state

    plain, traced, first_counts = [], [], None
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < args.seconds:
        gc.collect()
        plain.append(run_pass(ops, reference))
        gc.collect()
        before = recorder.calls.copy()
        restore = tracing.install(recorder)
        try:
            traced.append(run_pass(ops, reference))
        finally:
            tracing.uninstall(restore)
        recorder.keep_spans = False
        counts = recorder.calls - before
        if first_counts is None:
            first_counts = counts
            spans_per_pass = sum(counts.values())
        elif counts != first_counts:
            problems.append("traced passes made different calls")
    for p in plain + traced:
        problems += p.incorrect
        p.state = None

    k = len(traced)
    calls = setup[0] + first_counts
    self_ns = setup[1] + type(setup[1])({n: v / k for n, v in recorder.self_ns.items()})
    amounts = setup[2] + type(setup[2])({n: v // k for n, v in recorder.amounts.items()})
    values = tracing.layer_values(calls, self_ns, amounts)
    busy = lambda passes: statistics.median(p.busy for p in passes)
    values["trace.overhead_pct"] = (busy(traced) / busy(plain) - 1) * 100
    values["trace.spans"] = spans_per_pass
    values["cli.import_ms"] = import_ms(root)
    values["cli.main_ms"] = latency_metrics(plain, ops)[0] if ctx.in_process else 0.0

    write_trace(root / "perfbench" / "out" / f"trace-{args.workload}.json.gz",
                args, recorder, values)
    units = {"calls": "count", "self_ms": "ms", "summands": "count", "elements": "count",
             "triangulations": "count", "bytes": "bytes", "overhead_pct": "%",
             "spans": "count", "import_ms": "ms", "main_ms": "ms"}
    metrics = {name: {"value": value, "unit": units[name.rsplit(".", 1)[1]]}
               for name, value in sorted(values.items())}
    print(f"{args.workload}: {len(plain)} untraced and {k} traced passes, "
          f"{spans_per_pass} spans per pass", file=sys.stderr)
    report(plain + traced, ops, metrics, problems)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    import_torell(root)
    import workloads

    try:
        (trace if args.trace else measure)(args, root, workloads)
    finally:
        import shutil
        shutil.rmtree(workloads.Context(root).work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
