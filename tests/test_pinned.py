"""Pinned report bytes: digests, byte-identical reruns across a chunk boundary and strict JSON,
each report written by ``main()`` in process, and each rerun's second report by a child process.

The digests pin what a rerun cannot: a change to every draw or every number alike passes a
rerun. A whole JSON document is digested with the value of its version line set to a
placeholder, so a version bump re-pins nothing; ``test_json_report_names_the_package_version``
checks that line on its own.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from pipeuq import __version__
from pipeuq.cli import main
from test_cli import child_env
from test_golden import unversioned

GRID = ",".join(repr(i / 50) for i in range(51))
# the 51 x 51 grid's digests were taken when analytic computed on numpy arrays: the closed forms
# on floats write numpy's bytes, and each JSON metric list computed as it is written writes the
# bytes of the time analytic held every cell and wrote one dict at a time
ANALYTIC_GRID = ["analytic", "--prevalence", GRID, "--fix-rate", GRID, "--recall", "0.7731", "--precision", "0.8123"]
# a repeated, non-adjacent prevalence and two chunks per stream: every cell draws the numbers of
# its solo run, so 0.5.0's results hold
SIMULATE_GRID = ["simulate", "--seed", "7", "--trials", "70000", "--prevalence", "0.1,0.5,0.1", "--fix-rate",
                 "0,0.7,1", "--break-rate", "0.3", "--specificity", "0.5", "--n-items", "50", "--mode", "both",
                 "--output", "json"]
# 70 000 samples cross a chunk boundary (2**16)
SAMPLES = ["pbox-sample", "--seed", "7", "--trials", "70000"]
# a one-cell trace of 1.2 million values, above the old limit of 2**20, re-drawn as it is written
LONG_TRACE = ["simulate", "--trace", "--prevalence", "0.5", "--fix-rate", "0.5", "--n-items", "10", "--mode",
              "extremes", "--trials", "200000", "--output", "json"]


def whole(report: bytes) -> bytes:
    return report


def document(report: bytes) -> bytes:
    """The whole JSON report, the value of its version line set to a placeholder."""
    return unversioned(report.decode()).encode()


def results(report: bytes) -> bytes:
    """The report's results as compact JSON with sorted keys."""
    return json.dumps(json.loads(report)["results"], sort_keys=True, separators=(",", ":")).encode()


# name -> argv, the part of the report digested, its sha256
DIGESTS = {
    "analytic-grid.csv": ([*ANALYTIC_GRID, "--output", "csv"], whole,
                          "06473d32b3973ea3b1dc18f1ba75b48fa74527d11884a8c06da567817198e7ee"),
    "analytic-grid.json": ([*ANALYTIC_GRID, "--output", "json"], document,
                           "960e643f5a3df1469eb46a5f931f8ca69f913b967f9f4a558ca7d68bd70a29de"),
    "simulate-grid results": (SIMULATE_GRID, results,
                              "c312abd83124bfb6b5daa82bef72f7acbc952e58cec7ccb8870f768d1828920f"),
    "samples.json": ([*SAMPLES, "--output", "json"], document,
                     "f101bc1fcc2c7686879d1d211474d537d0e16bc48729c7badec2ed9fa47acf99"),
    "samples.csv": ([*SAMPLES, "--output", "csv"], whole,
                    "b3dc7ad04c5dc30aee54af04801499a1dd452b079ee0333ecdc9c20ebd4926df"),
}

RERUNS = {
    "simulate": ["simulate", "--seed", "7", "--trials", "70000", "--output", "json"],
    # the break and specificity terms drawn too
    "simulate-break": ["simulate", "--seed", "7", "--trials", "70000", "--mode", "both", "--break-rate", "0.3",
                       "--specificity", "0.5", "--output", "json"],
    "samples.json": [*SAMPLES, "--output", "json"],
    "samples.csv": [*SAMPLES, "--output", "csv"],
    "long-trace": LONG_TRACE,
}

STRICT = {
    "samples": ["pbox-sample", "--trials", "200000", "--output", "json"],
    "trace": ["simulate", "--trace", "--trials", "500", "--output", "json"],
    "long-trace": LONG_TRACE,
}

EVIDENCE = "source_id,metric,value\np1,recall,0.2\np2,recall,0.6\np3,precision,0.5\n"
COMMANDS = {
    "analytic": ["analytic"],
    "simulate": ["simulate", "--trials", "20"],
    "evidence": ["evidence", "{evidence}"],
    "case-study rule-based": ["case-study", "rule-based"],
    "case-study composed": ["case-study", "composed"],
    "pbox-sample": ["pbox-sample", "--trials", "100"],
}


def report(argv, path) -> bytes:
    """The bytes ``pipeuq <argv> --out <path>`` writes; the destination is not part of a report."""
    assert main([*argv, "--out", str(path)]) == 0, argv
    return path.read_bytes()


@pytest.mark.parametrize("name", DIGESTS)
def test_report_bytes_are_pinned(name, tmp_path):
    argv, part, digest = DIGESTS[name]
    assert hashlib.sha256(part(report(argv, tmp_path / "report"))).hexdigest() == digest


def other_hash_seed() -> str:
    """A PYTHONHASHSEED other than this process's: its own plus one, or 0 against a random one."""
    seed = os.environ.get("PYTHONHASHSEED", "random")
    return str((int(seed) + 1) % 2**32) if seed.isdigit() else "0"


@pytest.mark.parametrize("name", RERUNS)
def test_rerun_is_byte_identical(name, tmp_path):
    # the rerun is the process entry in a child, with another str hash seed
    argv = [*RERUNS[name], "--out", str(tmp_path / "second")]
    env = dict(child_env(), PYTHONHASHSEED=other_hash_seed())
    child = subprocess.run([sys.executable, "-m", "pipeuq.cli", *argv], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    assert report(RERUNS[name], tmp_path / "first") == (tmp_path / "second").read_bytes()


def refuse(token):
    raise ValueError(f"non-JSON constant {token}")


@pytest.mark.parametrize("name", STRICT)
def test_report_is_strict_json(name, tmp_path):
    # no NaN or Infinity token (RFC 8259)
    json.loads(report(STRICT[name], tmp_path / "report"), parse_constant=refuse)


@pytest.mark.parametrize("name", COMMANDS)
def test_json_report_names_the_package_version(name, tmp_path):
    (tmp_path / "ev.csv").write_text(EVIDENCE)
    argv = [arg.format(evidence=tmp_path / "ev.csv") for arg in COMMANDS[name]]
    assert json.loads(report([*argv, "--output", "json"], tmp_path / "report"))["version"] == __version__
