"""Byte-for-byte snapshots of every command's output.

Each case is run with ``--output table``, ``csv`` and ``json``. Table and csv
stdout are compared whole; for json only the ``results`` object is compared,
because ``config`` echoes the paths of the input files.

The expected bytes live in ``golden_outputs.json`` next to this file. When an
output change is intended, regenerate them with ``python tests/test_golden.py``
and review the diff.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

FIXTURE = Path(__file__).with_name("golden_outputs.json")

# Input files the cases read; an argv token "{name}" becomes the file's path.
FILES = {
    "evidence.csv": (
        "source_id,metric,value\n"
        "pubA,recall,0.62\npubA,recall,0.65\npubB,recall,0.70\npubC,recall,0.68\n"
        "pubD,recall,0.66\npubE,recall,0.10\n"
        "pubA,precision,0.71\npubB,precision,0.75\npubC,precision,0.8\n"
    ),
    "recall_only.csv": "source_id,metric,value\np1,recall,0.2\np2,recall,0.6\np2,recall,0.45\n",
    "tools.csv": "name,correct,generated\nAlpha,7,20\nBeta,0,5\nGamma,12,12\n",
}

CASES = {
    "analytic-default": ["analytic"],
    "analytic-na-cells": [
        "analytic", "--prevalence", "0,0.5,1", "--fix-rate", "0,0.5,1",
        "--recall", "0.8", "--precision", "0.7",
    ],
    "simulate-extremes": [
        "simulate", "--mode", "extremes", "--trials", "8", "--n-items", "200", "--seed", "3",
    ],
    "simulate-means-trace": [
        "simulate", "--mode", "means", "--trace", "--break-rate", "0.1", "--specificity", "0.5",
        "--prevalence", "0.3,0.8", "--fix-rate", "0.5,0.9", "--trials", "4", "--n-items", "150",
    ],
    "simulate-zero-prevalence": [
        "simulate", "--prevalence", "0,0.5", "--fix-rate", "0.5,1", "--trials", "6",
        "--n-items", "100",
    ],
    "evidence-outlier": ["evidence", "{evidence.csv}"],
    "evidence-recall-only": ["evidence", "{recall_only.csv}"],
    "case-study-rule-based": ["case-study", "rule-based"],
    "case-study-rule-based-tools": [
        "case-study", "rule-based", "--tools", "{tools.csv}", "--method", "wilson",
    ],
    "case-study-composed": ["case-study", "composed"],
    "pbox-sample": ["pbox-sample", "--trials", "6", "--seed", "3"],
    "pbox-sample-degenerate": [
        "pbox-sample", "--trials", "4", "--pbox-min", "0.5", "--pbox-max", "0.5",
        "--pbox-mean", "0.5",
    ],
}

OUTPUTS = ("table", "csv", "json")


def capture(case: str, output: str, directory: Path) -> str:
    """The bytes compared for one case and output format."""
    from pipeuq.cli import main

    argv = [directory.joinpath(tok[1:-1]).as_posix() if tok[1:-1] in FILES else tok
            for tok in CASES[case]]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main([*argv, "--output", output]) == 0, (case, output)
    text = buf.getvalue()
    if output == "json":
        return json.dumps(json.loads(text)["results"], indent=2, sort_keys=True) + "\n"
    return text


def write_files(directory: Path) -> None:
    for name, content in FILES.items():
        directory.joinpath(name).write_text(content, encoding="utf-8")


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden-inputs")
    write_files(directory)
    return directory


def test_fixture_covers_every_case(golden):
    assert set(golden) == {f"{case}/{output}" for case in CASES for output in OUTPUTS}


@pytest.mark.parametrize("output", OUTPUTS)
@pytest.mark.parametrize("case", CASES)
def test_output_matches_golden(golden, inputs, case, output):
    assert capture(case, output, inputs) == golden[f"{case}/{output}"]


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        write_files(Path(tmp))
        snapshot = {
            f"{case}/{output}": capture(case, output, Path(tmp))
            for case in CASES
            for output in OUTPUTS
        }
    FIXTURE.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(snapshot)} snapshots to {FIXTURE}")
