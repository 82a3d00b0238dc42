"""The benchmark's four workloads.

A workload's inputs are numbered candidates: a base seed for the ``cv_*``
workloads, a variant id from which the input files are drawn for the
others.  ``draw`` picks the candidates of a round from the workload seed
and the round's index alone, so a traced run can repeat a round exactly.
``write_inputs`` writes one candidate's input files, ``units`` builds its
CLI invocations, and ``check`` checks a completed unit's outputs.

Known fault kept in the workloads: ``fit_platt(..., smooth_targets=True)``
stalls on some calibration splits and the CLI exits 3.  Which candidates
stall depends on their inputs, so a round draws only from candidates not
seen to stall, and every ``cv_*`` round also runs one fixed candidate that
stalls every time.  The failed share of a run is then the same for every
seed and run length.  The stall lists come from running each candidate
once (``python3 perfbench/scan_stalls.py``); they go stale if fold
dealing, seeding or the Platt fit changes, and a pool unit that fails then
makes the run incorrect (``checks.check_failure``).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

import checks

README_SYNTHETIC = {"synthetic": {"n": 1000, "d": 10, "seed": 42}}
METHODS = ["uncalibrated", "platt", "isotonic"]


@dataclass(frozen=True)
class Unit:
    """One CLI invocation: its arguments, the file it writes, the
    candidate (and, for the pipeline, the dataset kind) it runs on, the
    kind its time is reported under, and whether it is the unit kept
    for the Platt stall, the only unit that may fail."""

    argv: tuple
    output: str
    case: object
    kind: str = ""
    may_stall: bool = False


def write_dataset_csv(path, x, y):
    header = ",".join(f"x{i + 1}" for i in range(x.shape[1])) + ",y\n"
    with open(path, "w") as handle:
        handle.write(header)
        handle.writelines(
            ",".join(map(repr, row)) + f",{label}\n" for row, label in zip(x.tolist(), y.tolist())
        )


def write_score_csv(path, scores, labels):
    with open(path, "w") as handle:
        handle.write("score,y\n")
        handle.writelines(f"{s!r},{y}\n" for s, y in zip(scores.tolist(), labels.tolist()))


def read_score_csv(path):
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    return table[:, 0], table[:, 1].astype(np.int64)


def readme_synthetic(rng, n=1000, d=10):
    """The README make-up: x ~ U[0,1]^d, label 1 iff x1 + x2 > 1."""
    x = rng.random((n, d))
    return x, (x[:, 0] + x[:, 1] > 1.0).astype(np.int64)


def gaussian_logit(rng, n, coefficient):
    """x ~ N(0, I_2), y ~ Bernoulli(sigmoid(coefficient * x1)); x2 is noise."""
    x = rng.standard_normal((n, 2))
    p = 1.0 / (1.0 + np.exp(-coefficient * x[:, 0]))
    return x, (rng.random(n) < p).astype(np.int64)


def squared_scores(rng, n):
    """s ~ U[0,1], y ~ Bernoulli(s^2): scores that need calibration."""
    s = rng.random(n)
    return s, (rng.random(n) < s * s).astype(np.int64)


def _load(path):
    with open(path) as handle:
        return json.load(handle)


class Workload:
    candidates = 0           # candidate ids are range(candidates) ...
    stalls = frozenset()     # ... less those whose units stall

    def __init__(self, seed, inputs, outputs):
        self.seed = seed
        self.inputs = inputs
        self.outputs = outputs
        self.pool = [j for j in range(self.candidates) if j not in self.stalls]

    def _path(self, name):
        return os.path.join(self.inputs, name)

    def setup(self):
        for candidate in self.setup_candidates():
            self.write_inputs(candidate)

    def round(self, round_index, tag):
        units = []
        for i, candidate in enumerate(self.draw(round_index)):
            units += self.units(candidate, os.path.join(self.outputs, f"{tag}-{i}"))
        return units


class CvWorkload(Workload):
    """``calibench benchmark`` on a README config; a candidate is a base seed."""

    model = feature_mode = directions = None
    repeats = per_round = stall_seed = 0

    def config(self, base_seed):
        return {
            "source": README_SYNTHETIC,
            "model": self.model,
            "methods": METHODS,
            "feature_mode": self.feature_mode,
            "folds": 5,
            "repeats": self.repeats,
            "bins": 10,
            "base_seed": base_seed,
        }

    def setup_candidates(self):
        return [self.stall_seed] + self.pool

    def write_inputs(self, base_seed):
        with open(self._path(f"config-{base_seed}.json"), "w") as handle:
            json.dump(self.config(base_seed), handle)

    def draw(self, round_index):
        drawn = np.random.default_rng([self.seed, round_index]).choice(self.pool, self.per_round)
        return [self.stall_seed] + [int(s) for s in drawn]

    def units(self, base_seed, stem):
        out = stem + ".json"
        argv = ("benchmark", "--config", self._path(f"config-{base_seed}.json"), "--out", out)
        return [Unit(argv, out, base_seed, may_stall=base_seed == self.stall_seed)]

    def check(self, unit, stdout):
        payload = _load(unit.output)
        checks.require(payload["config"]["base_seed"] == unit.case, "results of another base seed")
        checks.require(
            f"wrote {unit.output}: {len(payload['records'])} records" in stdout,
            "summary line missing",
        )
        checks.check_results(payload, n_rows=1000)
        self.directions(payload)


class CvLogreg(CvWorkload):
    model = {"logreg": {"C": 1.0}}
    feature_mode = "informative"
    repeats = 10
    per_round = 7
    stall_seed = 4
    candidates = 400
    stalls = frozenset((
        4, 12, 28, 34, 40, 44, 62, 64, 70, 83, 84, 98, 119, 121, 126, 142, 143,
        150, 159, 163, 165, 174, 176, 178, 189, 205, 206, 220, 244, 248, 249, 254,
        257, 275, 280, 282, 283, 287, 291, 295, 297, 301, 302, 315, 319, 333, 334,
        338, 339, 340, 342, 344, 351, 356, 358, 363, 365, 369, 376, 378, 383, 387,
        389,
    ))
    directions = staticmethod(checks.check_logreg_directions)


class CvForest(CvWorkload):
    model = {"forest": {"trees": 100, "depth": 10}}
    feature_mode = "full"
    repeats = 1
    per_round = 3
    stall_seed = 97
    candidates = 120
    stalls = frozenset((10, 17, 35, 39, 91, 97, 104))
    directions = staticmethod(checks.check_forest_directions)


class ScoresLarge(Workload):
    """``calibench benchmark`` with ``model: external`` on two large score
    files, each the other's calibration set (2 folds x 1 repeat)."""

    rows = 200_000
    candidates = 50
    stalls = frozenset()

    def __init__(self, seed, inputs, outputs):
        super().__init__(seed, inputs, outputs)
        self.variant = int(np.random.default_rng(seed).choice(self.pool))
        self._references = {}

    def _files(self, variant):
        return [self._path(f"scores-{variant}-{k}.csv") for k in "ab"]

    def setup_candidates(self):
        return [self.variant]

    def write_inputs(self, variant):
        a, b = self._files(variant)
        for k, path in enumerate((a, b)):
            write_score_csv(path, *squared_scores(np.random.default_rng([variant, k]), self.rows))
        config = {
            "source": {"scores": {"entries": [{"cal": a, "test": b}, {"cal": b, "test": a}]}},
            "model": {"external": {}},
            "methods": METHODS,
            "folds": 2,
            "repeats": 1,
            "bins": 10,
        }
        with open(self._path(f"config-{variant}.json"), "w") as handle:
            json.dump(config, handle)

    def draw(self, round_index):
        return [self.variant]

    def units(self, variant, stem):
        out = stem + ".json"
        argv = ("benchmark", "--config", self._path(f"config-{variant}.json"), "--out", out)
        return [Unit(argv, out, variant)]

    def check(self, unit, stdout):
        if unit.case not in self._references:
            a, b = (checks.reference_metrics(*read_score_csv(p)) for p in self._files(unit.case))
            self._references[unit.case] = {(0, 0): b, (0, 1): a}
        payload = _load(unit.output)
        checks.check_results(payload, n_rows=2 * self.rows)
        checks.check_external(payload, self._references[unit.case])


class SelectPipeline(Workload):
    """``calibench pipeline`` on three datasets per variant, each made to
    fire a different selection rule."""

    # dataset kind -> (selection rules it may fire, its maker)
    KINDS = {
        "readme": ({"cal_size"}, lambda rng: readme_synthetic(rng)),
        "steep": ({"shapiro_wilk"}, lambda rng: gaussian_logit(rng, 5000, 4.0)),
        "weak": ({"cv", "shapiro_wilk"}, lambda rng: gaussian_logit(rng, 5000, 0.2)),
    }
    variants = 4
    candidates = 200
    stalls = frozenset((12, 15, 25, 39, 43, 145, 148, 156, 159, 185))

    def __init__(self, seed, inputs, outputs):
        super().__init__(seed, inputs, outputs)
        chosen = np.random.default_rng(seed).choice(self.pool, self.variants, replace=False)
        self.chosen = [int(j) for j in chosen]

    def setup_candidates(self):
        return self.chosen

    def write_inputs(self, variant):
        for k, (kind, (_, make)) in enumerate(self.KINDS.items()):
            x, y = make(np.random.default_rng([variant, k]))
            write_dataset_csv(self._path(f"{kind}-{variant}.csv"), x, y)

    def draw(self, round_index):
        return self.chosen

    def round(self, round_index, tag):
        # the readme kind runs on the first variant only.  It is ~30 %
        # faster than the other two kinds; at one unit in nine, the median
        # unit time falls inside their cluster, not at its lower edge,
        # where it would move with the spread of either
        units = super().round(round_index, tag)
        return [u for u in units if u.kind != "readme" or u.case[0] == self.chosen[0]]

    def units(self, variant, stem):
        units = []
        for kind in self.KINDS:
            out = f"{stem}-{kind}.json"
            argv = ("pipeline", "--data", self._path(f"{kind}-{variant}.csv"),
                    "--seed", str(variant), "--map-out", out)
            units.append(Unit(argv, out, (variant, kind), kind=kind))
        return units

    def check(self, unit, stdout):
        variant, kind = unit.case
        trace = checks.check_pipeline(stdout, _load(unit.output), self.KINDS[kind][0])
        if kind == "readme":
            path = self._path(f"readme-{variant}.csv")
            labels = np.loadtxt(path, delimiter=",", skiprows=1, usecols=-1).astype(np.int64)
            expected = f"platt: cal size {checks.expected_cal_size(labels)} < 500"
            checks.require(trace == expected, f"trace {trace!r}, expected {expected!r}")


WORKLOADS = {
    "cv_logreg": CvLogreg,
    "cv_forest": CvForest,
    "scores_large": ScoresLarge,
    "select_pipeline": SelectPipeline,
}
