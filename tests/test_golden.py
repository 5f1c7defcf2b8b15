"""Byte-for-byte snapshots of every command's output.

Each case is run with ``--output table``, ``csv`` and ``json``. Table and csv
stdout are compared whole, and so is json stdout for a case that reads no
input file, with its ``version`` value set to a placeholder: a version bump
moves no report byte that a snapshot should hold, and
``test_pinned.py::test_json_report_names_the_package_version`` checks that
line. For a case that reads an input file, only the json ``results`` object
is compared, because ``config`` echoes the paths of the input files.

The expected bytes live in ``golden_outputs.json`` next to this file. When an
output change is intended, regenerate them with ``python tests/test_golden.py``
and review the diff.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

FIXTURE = Path(__file__).with_name("golden_outputs.json")
# a JSON report's last line but its closing brace: "version" sorts after "config" and "results"
VERSION_LINE = '\n  "version": {}\n}}\n'

# Input files the cases read; an argv token "{name}" becomes the file's path.
FILES = {
    "evidence.csv": (
        "source_id,metric,value\n"
        "pubA,recall,0.62\npubA,recall,0.65\npubB,recall,0.70\npubC,recall,0.68\n"
        "pubD,recall,0.66\npubE,recall,0.10\n"
        "pubA,precision,0.71\npubB,precision,0.75\npubC,precision,0.8\n"
    ),
    "precision_only.csv": "source_id,metric,value\np1,precision,0.7\np2,precision,0.85\np3,precision,0.8\n",
    "recall_only.csv": "source_id,metric,value\np1,recall,0.2\np2,recall,0.6\np2,recall,0.45\n",
    "tools.csv": "name,correct,generated\nAlpha,7,20\nBeta,0,5\nGamma,12,12\n",
}

CASES = {
    "analytic-default": ["analytic"],
    "analytic-na-cells": [
        "analytic", "--prevalence", "0,0.5,1", "--fix-rate", "0,0.5,1",
        "--recall", "0.8", "--precision", "0.7",
    ],
    # prevalences that read alike at two decimals
    "analytic-close-prevalences": ["analytic", "--prevalence", "0.001,0.004", "--fix-rate", "0.5"],
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
    # an unsorted grid with a repeated prevalence: the table shows each distinct cell once
    "simulate-repeated-grid": [
        "simulate", "--prevalence", "0.5,0,0.5", "--fix-rate", "1,0.5", "--trials", "3", "--n-items", "20",
    ],
    "evidence-outlier": ["evidence", "{evidence.csv}"],
    "evidence-recall-only": ["evidence", "{recall_only.csv}"],
    "evidence-precision-only": ["evidence", "{precision_only.csv}"],
    "case-study-rule-based": ["case-study", "rule-based"],
    "case-study-rule-based-tools": [
        "case-study", "rule-based", "--tools", "{tools.csv}", "--method", "wilson",
    ],
    "case-study-composed": ["case-study", "composed"],
    "pbox-sample": ["pbox-sample", "--trials", "6", "--seed", "3"],
    # the same options in the argv forms the command line takes: joined by "=", abbreviated, and the
    # study after a flag
    "simulate-joined-values": [
        "simulate", "--trials=3", "--n-items=20", "--prevalence=0.5", "--fix-rate=0.7", "--trace",
    ],
    "simulate-abbreviated-flags": ["simulate", "--tri", "3", "--n-it", "20", "--prev", "0.5", "--fix", "0.7"],
    "case-study-study-after-a-flag": ["case-study", "--seed", "3", "composed"],
    "pbox-sample-degenerate": [
        "pbox-sample", "--trials", "4", "--pbox-min", "0.5", "--pbox-max", "0.5",
        "--pbox-mean", "0.5",
    ],
}

OUTPUTS = ("table", "csv", "json")


def run(case: str, output: str, directory: Path) -> str:
    """One case's stdout, its input files in ``directory``."""
    from pipeuq.cli import main

    argv = [directory.joinpath(tok[1:-1]).as_posix() if tok[1:-1] in FILES else tok
            for tok in CASES[case]]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main([*argv, "--output", output]) == 0, (case, output)
    return buf.getvalue()


def unversioned(report: str) -> str:
    """A JSON report with the value of its version line set to a placeholder."""
    from pipeuq import __version__

    line = VERSION_LINE.format(json.dumps(__version__))
    assert report.endswith(line), report[-len(line):]
    return report[:-len(line)] + VERSION_LINE.format('"VERSION"')


def capture(case: str, output: str, directory: Path) -> str:
    """The bytes compared for one case and output format."""
    text = run(case, output, directory)
    if output == "json" and any(tok[1:-1] in FILES for tok in CASES[case]):  # config echoes an input path
        return json.dumps(json.loads(text)["results"], indent=2, sort_keys=True) + "\n"
    return unversioned(text) if output == "json" else text


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


@pytest.mark.parametrize("case", CASES)
def test_config_echoes_only_the_command_options(inputs, case):
    # the command, its flags and positionals from the pinned surface, but
    # --config and --out, which say where the inputs and report are
    from test_cli_surface import SURFACE

    options = {name.lstrip("-").replace("-", "_") for name in SURFACE[CASES[case][0]]} - {"config", "out"}
    assert set(json.loads(run(case, "json", inputs))["config"]) == {"command", *options}


# Writes the case-study snapshots as one JSON object, with numpy made
# unimportable before pipeuq is: a case study must not need it.
_WITHOUT_NUMPY = """
import json, sys
from pathlib import Path
sys.modules["numpy"] = None
import test_golden
cases = [case for case in test_golden.CASES if case.startswith("case-study")]
directory = Path(sys.argv[1])
test_golden.write_files(directory)
print(json.dumps({f"{case}/{output}": test_golden.capture(case, output, directory)
                  for case in cases for output in test_golden.OUTPUTS}))
"""


def test_case_studies_run_without_numpy(golden, tmp_path):
    here = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, (str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH"))))
    child = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY, str(tmp_path)],
                           env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    snapshots = json.loads(child.stdout)
    assert len(snapshots) == 4 * len(OUTPUTS)
    assert snapshots == {key: golden[key] for key in snapshots}


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
