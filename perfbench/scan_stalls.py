"""List the candidates of a workload whose units fail today.

    python3 perfbench/scan_stalls.py --workload cv_forest

Runs every unit of every candidate in ``range(candidates)`` once and prints
the ids of the candidates with a unit that exits non-zero, in the form of
the ``stalls`` set in ``workloads.py``.  Rerun it and update that set when
a change to fold dealing, seeding or the Platt fit moves the stalls.
"""

import argparse
import contextlib
import io
import os
import shutil
import sys

import run
import workloads


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    cli = run.import_cli()
    work = os.path.join(run.ROOT, "perfbench", "_runs", f"scan-{args.workload}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    kind = workloads.WORKLOADS[args.workload]
    workload = kind(0, work, work)
    failing = []
    for candidate in range(kind.candidates):
        workload.write_inputs(candidate)
        for unit in workload.units(candidate, os.path.join(work, "out")):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(unit.argv))
            if code != 0:
                failing.append(candidate)
                print(f"candidate {candidate}: exit {code}", file=sys.stderr, flush=True)
                break
    shutil.rmtree(work, ignore_errors=True)
    print(f"stalls = frozenset({tuple(failing)!r})")


if __name__ == "__main__":
    main()
