"""Benchmark of the cmasolve command line, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload picard-box --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

One process runs one workload: a fixed list of CLI commands called in
process through cmasolve.cli.main, one at a time (a closed loop with a
single client), repeated in whole passes for about --seconds.  Each
command's output is checked after it returns, outside the timed interval.
--trace 0 reports the end-to-end metrics; --trace 1 wraps the program's
public functions, runs traced and untraced passes in turn, and reports
the per-layer metrics and the tracing overhead.  The last line of stdout is
the JSON result; results and spans are also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# single-threaded pools, set before numpy loads: the kernels are
# elementwise numpy, which runs on one thread anyway, and a fixed cap keeps
# runs comparable on shared cores
os.environ["CMASOLVE_THREADS"] = THREADS
for _var in THREAD_VARS:
    os.environ[_var] = THREADS

import speed  # noqa: E402  (imports numpy)
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REQUIRED = ("src/cmasolve/cli.py", "configs/mms_convergence_n2.json",
            "configs/ball_cubic_n2.json")
SETUP_PROBES = 5
# the reference is read after every command at least this long, and at the
# start and end of each pass
READ_AFTER_S = 0.5
UNITS = {"setup_s": "s", "pass_s": "s", "max_cmd_s": "s",
         "peak_rss_mb": "MB"}


# -- set-up ------------------------------------------------------------------

def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its first command."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def environment(args) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {v: os.environ[v]
                        for v in ("CMASOLVE_THREADS",) + THREAD_VARS},
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cmasolve").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# -- passes ------------------------------------------------------------------

class Pass:
    """Wall time of each command of one pass, the reference readings on
    either side of it, and what went wrong."""

    def __init__(self):
        self.walls: list[float] = []
        self.around: list[tuple[float, float]] = []
        self.failed = 0
        self.wrong = 0
        self.problems: list[str] = []

    @property
    def wall(self) -> float:
        return sum(self.walls)

    @property
    def scaled(self) -> list[float]:
        return [speed.scaled(w, a, b)
                for w, (a, b) in zip(self.walls, self.around)]


def run_command(cli, cmd, record: Pass) -> None:
    out, err = io.StringIO(), io.StringIO()
    code, crash = None, None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(cmd.argv))
    except (Exception, SystemExit):
        crash = traceback.format_exc(limit=-3)
    record.walls.append(perf_counter() - t0)

    if crash is not None or code != 0:
        record.failed += 1
        tail = crash or err.getvalue()[-400:]
        record.problems.append(f"{cmd.label}: exit {code}: {tail.strip()}")
        return
    try:
        problems = cmd.check(json.loads(out.getvalue()))
    except (ValueError, KeyError, TypeError, OSError) as exc:
        problems = [f"output could not be checked: {exc!r}"]
    if problems:
        record.failed += 1
        record.wrong += 1
        record.problems += [f"{cmd.label}: {p}" for p in problems]


def run_pass(cli, commands, tracer=None, marks=None) -> Pass:
    """One pass over the commands; spans are recorded when tracer is set,
    and marks collects each command's span range.  The reference kernel
    is read, outside the timed intervals, at the start and end of the
    pass and after every command of READ_AFTER_S or more."""
    record = Pass()
    ref, since = speed.reference_s(), 0
    if tracer is not None:
        tracer.counts.clear()
        tracer.active = True
    try:
        for k, cmd in enumerate(commands):
            lo = len(tracer.start) if tracer is not None else 0
            run_command(cli, cmd, record)
            since += 1
            if record.walls[-1] >= READ_AFTER_S or k == len(commands) - 1:
                nxt = speed.reference_s()
                record.around += [(ref, nxt)] * since
                ref, since = nxt, 0
            if marks is not None:
                marks.append((cmd.label, lo, len(tracer.start)))
    finally:
        if tracer is not None:
            tracer.active = False
    return record


def run_passes(cli, commands, budget: float) -> list[Pass]:
    """Whole passes, at least one, until the next would overrun budget."""
    passes = []
    t0 = perf_counter()
    while True:
        passes.append(run_pass(cli, commands))
        typical = statistics.median(p.wall for p in passes)
        if perf_counter() - t0 + typical > budget:
            return passes


# -- one workload --------------------------------------------------------------

def end_to_end(passes: list[Pass], setup: list[float]) -> dict:
    """The end-to-end metrics; pass and command times are scaled to the
    nominal host speed, set-up time is as measured."""
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(sum(p.scaled) for p in passes),
        "max_cmd_s": statistics.median(max(p.scaled) for p in passes),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def unscaled(passes: list[Pass]) -> dict:
    """Pass and command times as measured, and the median reading."""
    return {
        "pass_s": statistics.median(p.wall for p in passes),
        "max_cmd_s": statistics.median(max(p.walls) for p in passes),
        "reference_s": statistics.median(
            r for p in passes for pair in p.around for r in pair),
    }


def layer_metrics(tracer, base: list[Pass], traced: list[Pass], spans,
                  workload: str, seed: int) -> tuple[dict, list[str]]:
    """Median per-layer metrics of the traced passes, the tracing
    overhead, and every counter that did not repeat."""
    import tracing

    per_pass = [tracing.span_metrics(tracer, lo, hi, counts)
                for lo, hi, counts in spans]
    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        metrics[name] = (values[0] if name in tracing.REPEATABLE
                         else statistics.median(values))
    mismatches = [f"pass {k + 1}: {name} {m[name]} != {per_pass[0][name]}"
                  for k, m in enumerate(per_pass[1:], start=1)
                  for name in tracing.REPEATABLE
                  if m[name] != per_pass[0][name]]

    # the same counters from an earlier traced run at this seed and source
    counters = {name: metrics[name] for name in tracing.REPEATABLE}
    digest = source_digest()
    ledger = OUT / f"counters-{workload}-seed{seed}.json"
    if ledger.exists():
        earlier = json.loads(ledger.read_text())
        if earlier.get("source") == digest:
            mismatches += [
                f"earlier run: {name} {earlier['counters'].get(name)} "
                f"!= {value}" for name, value in counters.items()
                if earlier["counters"].get(name) != value]
    ledger.write_text(json.dumps({"source": digest, "counters": counters},
                                 indent=1, sort_keys=True))

    untraced = statistics.median(p.wall for p in base)
    metrics["trace.pass_s"] = statistics.median(p.wall for p in traced)
    metrics["trace.overhead_pct"] = 100.0 * (metrics["trace.pass_s"]
                                             / untraced - 1.0)
    metrics["trace.counter_mismatches"] = len(mismatches)
    return metrics, mismatches


def traced_run(args, cli, commands):
    """Traced and untraced passes in turn, at least two traced and one
    untraced, so the overhead base samples the same machine state."""
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    base, traced, spans, marks = [], [], [], []
    t0 = perf_counter()
    while True:
        if len(traced) <= len(base):
            lo = len(tracer.start)
            traced.append(run_pass(cli, commands, tracer,
                                   None if traced else marks))
            spans.append((lo, len(tracer.start), tracer.counts.copy()))
        else:
            base.append(run_pass(cli, commands))
        typical = statistics.median(p.wall for p in base + traced)
        if (len(traced) >= 2 and base
                and perf_counter() - t0 + typical > args.seconds):
            break

    metrics, mismatches = layer_metrics(tracer, base, traced, spans,
                                        args.workload, args.seed)
    tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz",
                [(lo, hi) for lo, hi, _ in spans])
    for line in mismatches:
        print(f"counter mismatch: {line}", file=sys.stderr)
    details = {"mismatches": mismatches,
               "per_command_calls": [
                   {"command": label,
                    "calls": tracing.per_command(tracer, lo, hi)}
                   for label, lo, hi in marks]}
    units = {name: tracing.unit_of(name) for name in metrics}
    return base + traced, metrics, units, details


def run_workload(args) -> int:
    setup = [probe_setup(args.workload, args.seed)
             for _ in range(SETUP_PROBES)]

    import workloads
    cli = workloads.import_program(ROOT)
    env = environment(args)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-",
                                     dir=OUT) as workdir:
        commands = workloads.build(args.workload, args.seed, Path(workdir),
                                   ROOT)
        if args.trace:
            passes, metrics, units, extra = traced_run(args, cli, commands)
        else:
            passes = run_passes(cli, commands, args.seconds)
            metrics, units = end_to_end(passes, setup), UNITS
            extra = {"unscaled": unscaled(passes),
                     "references": [p.around for p in passes]}

    attempted = sum(len(p.walls) for p in passes)
    failed = sum(p.failed for p in passes)
    wrong = sum(p.wrong for p in passes)
    problems = [p for rec in passes for p in rec.problems]
    for line in problems[:20]:
        print(f"failed: {line}", file=sys.stderr)

    result = {"correct": wrong == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    record = dict(result, environment=env, passes=[p.walls for p in passes],
                  setup_probes_s=setup,
                  problems=problems, **extra)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))

    print("environment " + json.dumps(env, sort_keys=True))
    for row in extra.get("per_command_calls", []):
        print(f"calls in {row['command']}: " + json.dumps(row["calls"]))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    for name, value in extra.get("unscaled", {}).items():
        print(f"unscaled {name} {value:.6g} s")

    print(f"commands attempted {attempted} failed {failed}")
    print(json.dumps(result))
    return 0


# -- all workloads ---------------------------------------------------------------

def run_all(args) -> int:
    """Each workload in its own process; prints every metric per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            code = 1
            continue
        result = json.loads(lines[-1])
        print(f"== {name}: attempted {result['attempted']} "
              f"failed {result['failed']} correct {result['correct']}")
        for metric, body in result["metrics"].items():
            print(f"{name} {metric} {body['value']:.6g} {body['unit']}")
            merged["metrics"][f"{name}.{metric}"] = body
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print("error: run from a cmasolve checkout; missing "
              + ", ".join(missing), file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
