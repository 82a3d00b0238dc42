"""Benchmark of calibench through its command line.

    python3 perfbench/run.py --workload cv_logreg --seed 1 --seconds 28 --trace 0

One process runs one workload: it imports calibench from ``src/``, writes
the workload's inputs from ``--seed``, then calls ``calibench.cli.main``
in-process, one unit (CLI invocation) after another, in whole rounds for
about ``--seconds``, and checks every completed unit's output and that
every failed unit is the kept Platt stall.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics of ``tracing.py`` with ``--trace 1``.

With ``--trace 1`` every round runs twice, untraced and then traced, on
the same inputs: the per-layer metrics come from the traced units, the
tracing overhead is the difference of the two medians, and each traced
unit's output must be byte-identical to its untraced twin's.  Spans are
written to ``perfbench/_runs/<run>/spans.jsonl``.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 3


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_cli():
    """calibench.cli from this checkout's ``src/``, never another copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        from calibench import cli
    except ImportError as exc:
        sys.exit(f"error: cannot import calibench from {src}: {exc}")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"error: calibench was imported from {cli.__file__}, not from {src}")
    return cli


def blas_threads():
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return getattr(lib, symbol)()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def environment():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return (f"python {platform.python_version()}  numpy {numpy.__version__}  blas {blas}  "
            f"blas_threads {blas_threads()}  nproc {os.cpu_count()}")


def reference_seconds():
    """A fixed NumPy and pure-Python loop, no calibench: shows how fast the
    machine is right now, apart from any change to the program."""
    import numpy

    x = numpy.random.default_rng(0).random(200_000)
    start = time.perf_counter()
    for _ in range(20):
        numpy.sort(x)
    total = 0
    for i in range(1_000_000):
        total += i & 7
    return time.perf_counter() - start


@dataclass
class Outcome:
    unit: object
    code: int
    stdout: str
    stderr: str
    seconds: float
    traced: bool


def run_unit(main, unit, tracer=None, unit_id=None):
    out, err = io.StringIO(), io.StringIO()
    argv = list(unit.argv)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv) if tracer is None else tracer.run_unit(unit_id, main, argv)
    except Exception:  # a traceback is a failed unit, not the end of the run
        code = -1
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    return Outcome(unit, code, out.getvalue(), err.getvalue(), seconds, tracer is not None)


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tail_label(count):
    """Highest of p99/p90/p75 with at least ten samples beyond it."""
    for q in (99, 90, 75):
        if count * (100 - q) / 100 >= 10:
            return q
    return None


def compare_twins(untraced, traced):
    """Byte-identity of a traced unit's output with its untraced twin's."""
    problems = []
    for a, b in zip(untraced, traced):
        if a.code != b.code or a.stdout.replace(a.unit.output, "") != b.stdout.replace(b.unit.output, ""):
            problems.append(f"{b.unit.output}: exit code or printed output differs when traced")
        elif a.code == 0:
            with open(a.unit.output, "rb") as fa, open(b.unit.output, "rb") as fb:
                if fa.read() != fb.read():
                    problems.append(f"{b.unit.output}: output bytes differ when traced")
    return problems


def main(argv=None):
    args = parse_args(argv)
    cli = import_cli()
    import tracing
    import workloads

    name = args.workload
    run_dir = os.path.join(ROOT, "perfbench", "_runs", f"{name}-s{args.seed}-t{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    outputs = os.path.join(run_dir, "units")
    os.makedirs(outputs)

    # each repetition writes every input afresh into a directory of its
    # own; the last one's inputs are used
    import_s = time.perf_counter() - STARTED
    setup_times = []
    for k in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = os.path.join(run_dir, f"inputs-{k}")
        os.makedirs(inputs)
        workload = workloads.WORKLOADS[name](args.seed, inputs, outputs)
        workload.setup()
        setup_times.append(time.perf_counter() - start)
    setup_s = import_s + statistics.median(setup_times)

    print(f"workload {name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"env: {environment()}")
    reference_before = reference_seconds()

    tracer = tracing.Tracer() if args.trace else None
    outcomes, twins = [], []
    loop_start = time.perf_counter()
    round_index = 0
    # whole rounds, ending nearest to --seconds: another round starts only
    # if the mean round so far would end less than half a round late
    while round_index == 0 or (
        (elapsed := time.perf_counter() - loop_start) + 0.5 * elapsed / round_index < args.seconds
    ):
        plain = [run_unit(cli.main, u) for u in workload.round(round_index, f"r{round_index}")]
        outcomes += plain
        if tracer is not None:
            tracer.install()
            try:
                traced = [
                    run_unit(cli.main, u, tracer, unit_id=len(outcomes) + i)
                    for i, u in enumerate(workload.round(round_index, f"t{round_index}"))
                ]
            finally:
                tracer.uninstall()
            outcomes += traced
            twins.append((plain, traced))
        round_index += 1
    loop_s = time.perf_counter() - loop_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"reference loop: {reference_before:.4f} s before, {reference_seconds():.4f} s after")

    completed = [o for o in outcomes if o.code == 0]
    failures = Counter(
        f"exit {o.code}: {(o.stderr.strip().splitlines() or ['(no message)'])[-1]}"
        for o in outcomes if o.code != 0
    )
    problems = []
    for outcome in outcomes:
        if outcome.code != 0:
            try:
                workloads.checks.check_failure(outcome.code, outcome.stderr, outcome.unit.may_stall)
            except workloads.checks.CheckFailed as exc:
                problems.append(f"{outcome.unit.output}: {exc}")
    for outcome in completed:
        try:
            workload.check(outcome.unit, outcome.stdout)
        except (workloads.checks.CheckFailed, KeyError, TypeError, ValueError, OSError) as exc:
            # a missing or malformed output is a wrong output
            problems.append(f"{outcome.unit.output}: {type(exc).__name__}: {exc}")
    checks_passed = len(outcomes) - len(problems)
    twin_problems = [p for plain, traced in twins for p in compare_twins(plain, traced)]
    problems += twin_problems
    correct = not problems and bool(completed)

    print(f"rounds {round_index}  loop {loop_s:.3f} s")
    print(f"units: attempted {len(outcomes)}  completed {len(completed)}  failed {len(outcomes) - len(completed)}")
    for message, count in sorted(failures.items()):
        print(f"  failed {count} x {message}")
    print(f"checks: {checks_passed} of {len(outcomes)} units passed "
          f"(failures are checked to be the kept Platt stall)")
    if twins:
        print(f"traced outputs identical to untraced: {not twin_problems}")
    for problem in problems[:20]:
        print(f"  CHECK FAILED {problem}", file=sys.stderr)

    times = [1000.0 * o.seconds for o in completed if not o.traced]
    metrics = {}
    if times:
        metrics = {
            "setup_s": (setup_s, "s"),
            "units_per_s": (len(times) / loop_s, "1/s"),
            "unit_ms.p50": (statistics.median(times), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(f"setup: import {import_s:.4f} s, inputs {', '.join(f'{t:.4f}' for t in setup_times)} s")
    if tracer is None:
        for metric, (value, unit) in metrics.items():
            print(f"{name}/{metric} = {value:.6g} {unit}")
        kinds = sorted({o.unit.kind for o in completed})
        if len(kinds) > 1:  # the median of a mix of kinds, by kind
            print("unit_ms.p50 by dataset kind: " + ", ".join(
                f"{kind} {statistics.median(1000.0 * o.seconds for o in completed if o.unit.kind == kind):.6g}"
                for kind in kinds))
        tail = tail_label(len(times))
        if tail is not None:
            print(f"{name}/unit_ms.p{tail} = {percentile(times, tail):.6g} ms ({len(times)} units)")
        else:
            print(f"({len(times)} units: median only, too few for a tail percentile)")
        result = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        traced_times = [1000.0 * o.seconds for o in completed if o.traced]
        if times and traced_times:
            p50, traced_p50 = statistics.median(times), statistics.median(traced_times)
            print(f"tracing overhead: unit_ms.p50 traced {traced_p50:.6g} - untraced {p50:.6g} "
                  f"= {traced_p50 - p50:+.6g} ms")
        tracer.write(os.path.join(run_dir, "spans.jsonl"), loop_start)
        layers = tracer.per_layer()
        print(f"per-layer, per traced unit ({tracer.units} traced units, {len(tracer.spans)} spans):")
        result = {}
        for metric, value in layers.items():
            unit = "ms" if metric.endswith("ms") else "count"
            print(f"  {name}/{metric} = {value:.6g} {unit}")
            result[metric] = {"value": value, "unit": unit}

    if correct:  # keep only the spans of a run that passed
        if tracer is None:
            shutil.rmtree(run_dir, ignore_errors=True)
        else:
            for path in glob.glob(os.path.join(run_dir, "*")):
                if not path.endswith("spans.jsonl"):
                    shutil.rmtree(path, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(outcomes) - len(completed),
        "metrics": result,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
