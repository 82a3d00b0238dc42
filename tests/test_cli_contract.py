"""The exit-code contract of the command line, fuzzed.

Each subcommand runs in-process on a valid command line with one mutation:
a flag's value swapped for a bad one, a required flag dropped, an unknown
flag added, or an input file edited (a NaN cell, a label of 2, a ragged
row, a truncated body, bytes that are not UTF-8, an empty or a missing
file).  Every run must exit 0, 1, 2 or 3 with no exception escaping
``main`` and no traceback on stderr, and a run that fails must leave no
output file behind.
"""

import contextlib
import functools
import io
import json
import os
import shutil

from hypothesis import given, settings
from hypothesis import strategies as st

from calibench import cli

# subcommand -> its valid argv; {name} is an input file of that name, and
# {out:name} an output path that must not exist after a failed run
COMMANDS = {
    "synth": ["--n", "60", "--d", "3", "--seed", "1", "--out", "{out:out_synth.csv}"],
    "benchmark": ["--config", "{config.json}", "--out", "{out:out_results.json}"],
    "compare": ["--results", "{results.json}", "--metric", "ece", "--alpha", "0.05",
                "--out", "{out:out_compare.json}"],
    "reliability": ["--scores", "{scores.csv}", "--bins", "5", "--out", "{out:out_diagram.csv}"],
    "convergence": ["--sizes", "5,10,20,500", "--trials", "10", "--seed", "0",
                    "--g-star", "identity", "--out", "{out:out_study.json}"],
    "pipeline": ["--data", "{data.csv}", "--model", "logreg", "--seed", "0", "--C", "1.0",
                 "--map-out", "{out:out_map.json}"],
}

VALUES = ("-1", "0", "2.5", "nan", "inf", "1e400", "", "x", "constant:2", "ece,brier")

EDITS = ("nan", "label", "ragged", "truncate", "not-utf8", "empty", "missing")


@functools.cache
def _inputs(tmp: str) -> dict:
    """The valid input files, written once: name -> bytes."""
    os.makedirs(tmp, exist_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["synth", "--n", "60", "--d", "3", "--seed", "1", "--out", f"{tmp}/data.csv"]) == 0
        with open(f"{tmp}/config.json", "w") as handle:
            json.dump({
                "source": {"csv": {"path": f"{tmp}/data.csv"}},
                "model": {"logreg": {}},
                "methods": ["uncalibrated", "platt"],
                "folds": 2,
                "repeats": 1,
            }, handle)
        assert cli.main(["benchmark", "--config", f"{tmp}/config.json", "--out", f"{tmp}/results.json"]) == 0
    with open(f"{tmp}/scores.csv", "w") as handle:
        handle.write("score,y\n" + "".join(f"{i / 40!r},{i % 3 == 0:d}\n" for i in range(40)))
    names = ("data.csv", "config.json", "results.json", "scores.csv")
    return {name: open(f"{tmp}/{name}", "rb").read() for name in names}


def _edit(body: bytes, edit: str, at: int) -> bytes | None:
    """``body`` after ``edit``; None for a missing file."""
    lines = body.split(b"\n")
    row = min(1 + at % max(len(lines) - 2, 1), len(lines) - 1)
    if edit == "nan":
        lines[row] = b"nan," + lines[row].split(b",", 1)[-1]
    elif edit == "label":
        lines[row] = lines[row].rsplit(b",", 1)[0] + b",2"
    elif edit == "ragged":
        lines[row] += b",1"
    elif edit == "truncate":
        return body[: at % max(len(body), 1)]
    elif edit == "not-utf8":
        lines[row] = b"\xff\xfe" + lines[row]
    elif edit == "empty":
        return b""
    elif edit == "missing":
        return None
    return b"\n".join(lines)


@st.composite
def runs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = list(COMMANDS[command])
    mutation = draw(st.sampled_from(["value", "drop", "unknown", "file"]))
    edits = {}
    flags = [i for i in range(0, len(argv), 2)]
    inputs = [i + 1 for i in flags if argv[i + 1].startswith("{") and not argv[i + 1].startswith("{out:out_")]
    if mutation == "file" and not inputs:
        mutation = "value"
    if mutation == "value":
        argv[draw(st.sampled_from(flags)) + 1] = draw(st.sampled_from(VALUES))
    elif mutation == "drop":
        i = draw(st.sampled_from(flags))
        del argv[i:i + 2]
    elif mutation == "unknown":
        argv += ["--bogus", "1"]
    else:
        name = argv[draw(st.sampled_from(inputs))][1:-1]
        edits[name] = (draw(st.sampled_from(EDITS)), draw(st.integers(0, 10_000)))
    return [command] + argv, edits


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(run=runs())
def test_every_run_exits_with_a_documented_code_and_no_partial_output(run, tmp_path_factory):
    argv, edits = run
    base = tmp_path_factory.getbasetemp()
    inputs = _inputs(str(base / "cli_inputs"))
    work = base / "cli_run"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    for name, body in inputs.items():
        if name in edits:
            body = _edit(body, *edits[name])
        if body is not None:
            (work / name).write_bytes(body)
    if "config.json" not in edits:  # point the config at this run's data file
        config = json.loads(inputs["config.json"])
        config["source"]["csv"]["path"] = str(work / "data.csv")
        (work / "config.json").write_text(json.dumps(config))
    # an output path is relative to the run's directory, a mutated one too
    argv = [a[5:-1] if a.startswith("{out:out_") else a[1:-1] if a.startswith("{") else a for a in argv]
    outputs = [argv[i + 1] for i, a in enumerate(argv[:-1]) if a in ("--out", "--map-out")]
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), err.getvalue()
    if code != 0:
        assert err.getvalue().count("\n") == 1, (argv, err.getvalue())
        assert not [p for p in outputs if p and (work / p).exists()], (argv, err.getvalue())
