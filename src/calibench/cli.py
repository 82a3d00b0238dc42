"""Command-line front end.

Subcommands: ``synth`` (write a synthetic dataset CSV), ``benchmark`` (run
the repeated-CV protocol from a JSON config), ``compare`` (paired t-tests
on a saved results file), ``reliability`` (reliability-diagram CSV from a
score file), ``convergence`` (isotonic error-vs-n study), and ``pipeline``
(the end-to-end calibration-selection pipeline on a CSV dataset).

Exit codes: 0 success; 1 usage error (bad flags or config values); 2 data
error (unreadable/unwritable files, malformed or contract-violating data);
3 numerical failure (an optimizer did not converge).  Flags are validated
before any file is touched, so usage errors never leave partial outputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import __version__
from .calibrators import map_to_json
from .datasets import SyntheticConfig, generate_synthetic, load_csv, load_score_csv, save_csv
from .errors import CalibenchError, InvalidSpecError, NotConvergedError
from .harness import (
    ForestSpec,
    LogregSpec,
    bootstrap_metric_ci,
    compare_methods,
    config_from_json,
    load_results,
    run_convergence_study,
    run_enhanced_calibration,
    run_repeated_cv,
    save_results,
)
from .metrics import reliability_bins
from .stats import bonferroni
from ._util import check_real, to_json, write_json

__all__ = ["main"]


class _UsageError(Exception):
    """Raised for bad flags or config values; mapped to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we need exit 1
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_synth(args) -> int:
    config = SyntheticConfig(n=args.n, d=args.d, seed=args.seed)
    data = generate_synthetic(config)
    save_csv(data, args.out)
    print(f"wrote {args.out}: n={data.n} d={data.d} seed={config.seed} "
          f"positives={int(data.labels.sum())}")
    return 0


def _cmd_benchmark(args) -> int:
    with open(args.config, "r") as handle:
        try:
            payload = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise _UsageError(f"{args.config}: not valid JSON ({exc})") from None
    try:
        config = config_from_json(payload)
    except KeyError as exc:
        raise _UsageError(f"{args.config}: {exc.args[0]}") from None
    except ValueError as exc:
        raise _UsageError(f"{args.config}: {exc}") from None
    table = run_repeated_cv(config)
    save_results(table, args.out)
    print(f"wrote {args.out}: {len(table.records)} records")
    for row in table.aggregates:
        if row.metric == "ece":
            print(
                f"  {row.model_name} {row.method_name}: "
                f"ece {row.mean:.4f} +/- {row.sd:.4f}"
            )
    return 0


def _cmd_compare(args) -> int:
    check_real(args.alpha, "--alpha", 0.0, 1.0)
    table = load_results(args.results)
    rows = compare_methods(table, args.metric, family_alpha=args.alpha)
    threshold, _ = bonferroni([row.p_value for row in rows], args.alpha)
    print(f"metric: {args.metric}  pairs: {len(rows)}  "
          f"bonferroni threshold: {threshold:.6g}")
    for row in rows:
        stars = "***" if row.significant_at_corrected_alpha else ""
        print(
            f"  {row.name_a} vs {row.name_b}: mean diff {row.mean_diff:+.6g}  "
            f"t={row.t_statistic:.4f}  p={row.p_value:.4g}  d={row.cohens_d:.4f}  {stars}"
        )
    if args.out is not None:
        payload = {
            "metric": args.metric,
            "family_alpha": args.alpha,
            "bonferroni_threshold": threshold,
            "comparisons": [to_json(r) for r in rows],
        }
        write_json(args.out, payload)
        print(f"wrote {args.out}")
    return 0


def _cmd_reliability(args) -> int:
    if args.bins < 1:
        raise _UsageError(f"--bins must be >= 1, got {args.bins}")
    score_set = load_score_csv(args.scores)
    stats = reliability_bins(score_set.scores, score_set.labels, bins=args.bins)
    with open(args.out, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["bin_lo", "bin_hi", "count", "confidence", "accuracy"])
        for i in range(args.bins):
            count = int(stats.counts[i])
            conf = repr(float(stats.mean_confidence[i])) if count else ""
            acc = repr(float(stats.empirical_accuracy[i])) if count else ""
            edges = [repr(float(edge)) for edge in stats.bin_edges[i:i + 2]]
            writer.writerow(edges + [count, conf, acc])
    print(f"wrote {args.out}: {args.bins} bins over {score_set.n} scores")
    return 0


def _parse_g_star(spec: str):
    if spec == "identity":
        return spec, lambda s: np.asarray(s, dtype=np.float64)
    if spec.startswith("constant:"):
        try:
            level = float(spec.split(":", 1)[1])
        except ValueError:
            raise _UsageError(f"bad constant level in --g-star {spec!r}") from None
        check_real(level, "--g-star constant level", 0.0, 1.0, "[]")
        return spec, lambda s: np.full(np.shape(s), level)
    raise _UsageError(
        f"unknown --g-star {spec!r}; valid: identity, constant:<level>"
    )


def _cmd_convergence(args) -> int:
    try:
        sizes = tuple(int(token) for token in args.sizes.split(","))
    except ValueError:
        raise _UsageError(f"--sizes must be comma-separated integers, got {args.sizes!r}") from None
    if args.trials < 10:
        raise _UsageError(f"--trials must be >= 10, got {args.trials}")
    if args.seed < 0:
        raise _UsageError(f"--seed must be >= 0, got {args.seed}")
    name, g_star = _parse_g_star(args.g_star)
    study = run_convergence_study(g_star, sizes, args.trials, args.seed)
    payload = {
        "g_star": name,
        "sizes": list(study.sizes),
        "trials": args.trials,
        "seed": args.seed,
        "mean_errors": [float(e) for e in study.mean_errors],
        "trial_errors": [[float(e) for e in row] for row in study.trial_errors],
        "slope": study.slope,
        "intercept": study.intercept,
    }
    write_json(args.out, payload)
    print(f"wrote {args.out}: slope {study.slope:.4f} over sizes {list(study.sizes)}")
    return 0


def _cmd_pipeline(args) -> int:
    if args.model == "logreg":
        spec = LogregSpec(C=args.C)
    elif args.model == "forest":
        spec = ForestSpec(trees=args.trees, depth=args.depth)
    else:
        raise _UsageError(f"unknown model {args.model!r}; valid: logreg, forest")
    if args.seed < 0:
        raise _UsageError(f"--seed must be >= 0, got {args.seed}")
    data = load_csv(args.data, label_column=args.label_column)
    artifact = run_enhanced_calibration(data, spec, seed=args.seed)
    interval = bootstrap_metric_ci(
        artifact.holdout.scores, artifact.holdout.labels, metric="ece", seed=args.seed
    )
    print(f"selection: {artifact.selection_trace}")
    print(f"chosen method: {artifact.method_name}")
    print(f"test ece: {artifact.report.ece:.6g}")
    print(f"test brier: {artifact.report.brier:.6g}")
    print(
        f"test ece 95% bootstrap ci: [{interval.lower:.6g}, {interval.upper:.6g}]"
    )
    write_json(args.map_out, map_to_json(artifact.calibration_map))
    print(f"wrote {args.map_out}")
    return 0


# ---------------------------------------------------------------------------
# parser assembly and dispatch
# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(
        prog="calibench",
        description="Probability-calibration benchmark: fit, evaluate, and compare "
        "Platt and isotonic calibration maps.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.set_defaults(handler=None)
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    p = sub.add_parser("synth", help="write a synthetic dataset CSV")
    p.add_argument("--n", type=int, default=1000, help="sample count (default 1000)")
    p.add_argument("--d", type=int, default=10, help="feature count, >= 2 (default 10)")
    p.add_argument("--seed", type=int, default=42, help="generator seed (default 42)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("benchmark", help="run the repeated-CV benchmark from a JSON config")
    p.add_argument("--config", required=True, help="experiment config JSON path")
    p.add_argument("--out", required=True, help="output results JSON path")
    p.set_defaults(handler=_cmd_benchmark)

    p = sub.add_parser("compare", help="paired t-tests between methods in a results file")
    p.add_argument("--results", required=True, help="results JSON from 'benchmark'")
    p.add_argument("--metric", default="ece", help="metric to compare (default ece)")
    p.add_argument("--alpha", type=float, default=0.05, help="family alpha (default 0.05)")
    p.add_argument("--out", default=None, help="optional comparison JSON path")
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("reliability", help="write a reliability-diagram CSV from a score file")
    p.add_argument("--scores", required=True, help="score CSV (columns score,y)")
    p.add_argument("--bins", type=int, default=10, help="bin count (default 10)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(handler=_cmd_reliability)

    p = sub.add_parser("convergence", help="isotonic error-vs-sample-size study")
    p.add_argument(
        "--sizes",
        default="100,1000,10000,100000",
        help="comma-separated sample sizes, >= 4 spanning >= 2 decades",
    )
    p.add_argument("--trials", type=int, default=20, help="trials per size, >= 10 (default 20)")
    p.add_argument("--seed", type=int, default=0, help="study seed (default 0)")
    p.add_argument(
        "--g-star",
        dest="g_star",
        default="identity",
        help="ground-truth curve: identity or constant:<level> (default identity)",
    )
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(handler=_cmd_convergence)

    p = sub.add_parser("pipeline", help="run the calibration-selection pipeline on a CSV")
    p.add_argument("--data", required=True, help="dataset CSV path")
    p.add_argument("--model", default="logreg", help="base model: logreg or forest")
    p.add_argument("--label-column", default="y", help="label column name (default y)")
    p.add_argument("--seed", type=int, default=0, help="pipeline seed (default 0)")
    p.add_argument("--C", type=float, default=1.0, help="logreg inverse regularization (default 1.0)")
    p.add_argument("--trees", type=int, default=100, help="forest tree count (default 100)")
    p.add_argument("--depth", type=int, default=10, help="forest max depth (default 10)")
    p.add_argument("--map-out", default="map.json", help="calibration map JSON path (default map.json)")
    p.set_defaults(handler=_cmd_pipeline)

    return parser


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version print and exit 0
        return 0 if exc.code in (None, 0) else 1
    if args.handler is None:
        parser.print_help()
        return 1
    try:
        return int(args.handler(args))
    except NotConvergedError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (_UsageError, InvalidSpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, CalibenchError) as exc:  # a bad data value's error is also a ValueError
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
