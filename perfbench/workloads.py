"""Workloads of the pipeuq benchmark and the seeded inputs they run on.

A workload is a list of CLI invocations (``python -m pipeuq.cli <argv>``).
Every argv and every generated input file is a function of the benchmark's
seed alone, so two runs with one seed send the program identical inputs.
Each invocation carries the oracle that checks its output (see oracle.py).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

# The default `pipeuq simulate` grid; the sweep runs it with fewer trials so
# that one run holds several invocations.
DEFAULT_PREVALENCE = (0.10, 0.50, 1.00)
DEFAULT_FIX_RATE = (0.50, 0.70, 0.90, 1.00)
DEFAULT_N_ITEMS = 10_000
SWEEP_TRIALS = 60

# One cell with millions of items: per-item arrays set time and peak RSS.
POPULATION_ITEMS = 3_000_000
POPULATION_TRIALS = 2
POPULATION_CELL = (0.5, 0.7)

# The cli_mix inputs.
ANALYTIC_GRID = tuple(round(i / 50, 2) for i in range(51))
PBOX_SAMPLES = 100_000
MIX_SIM = {"prevalence": 0.3, "fix_rate": 0.7, "n_items": 10_000, "trials": 200,
           "specificity": 0.9, "break_rate": 0.05}
# Row and source counts of the paper's evidence base (recall, precision).
EVIDENCE_SIZES = {"recall": (2328, 115), "precision": (2043, 100)}
EVIDENCE_SHAPES = {"recall": (5.0, 1.75), "precision": (4.0, 1.6)}
EVIDENCE_OUTLIERS = {"recall": 6, "precision": 5}
TOOLS = 12


@dataclass(frozen=True)
class Invocation:
    """One CLI call of a workload.

    ``check`` maps the call's standard output to a list of
    ``(label, ok, detail)`` correctness checks. ``item_trials`` is
    items x trials x 2 streams x cells for a ``simulate`` call, else 0.
    """

    name: str
    argv: tuple[str, ...]
    check: Callable[[str], list]
    item_trials: int = 0


def _grid(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def write_evidence(path: Path, rng: np.random.Generator) -> dict[str, list[tuple[str, float]]]:
    """Write an evidence CSV of recall and precision rows; return the rows.

    Values are beta-distributed in [0, 1], each metric gets a few values near
    0 that the IQR rule removes, and every source id appears at least once.
    """
    rows: dict[str, list[tuple[str, float]]] = {}
    lines = ["source_id,metric,value"]
    for metric, (count, sources) in EVIDENCE_SIZES.items():
        a, b = EVIDENCE_SHAPES[metric]
        values = rng.beta(a, b, count)
        outliers = EVIDENCE_OUTLIERS[metric]
        values[:outliers] = rng.uniform(0.0, 0.05, outliers)
        values = np.round(np.clip(values, 0.0, 1.0), 4)
        ids = np.concatenate([np.arange(sources), rng.integers(0, sources, count - sources)])
        rng.shuffle(ids)
        prefix = metric[0].upper()
        rows[metric] = [(f"{prefix}{i + 1:03d}", float(v)) for i, v in zip(ids, values)]
        lines += [f"{sid},{metric},{v!r}" for sid, v in rows[metric]]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return rows


def write_tools(path: Path, rng: np.random.Generator) -> list[tuple[str, int, int]]:
    """Write a tool-records CSV (name,correct,generated); return the records."""
    tools = []
    for i in range(TOOLS):
        generated = int(rng.integers(20, 400))
        correct = int(rng.binomial(generated, rng.uniform(0.05, 0.8)))
        tools.append((f"tool{i + 1:02d}", correct, generated))
    lines = ["name,correct,generated"] + [f"{n},{c},{g}" for n, c, g in tools]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return tools


def sweep(seed: int, workdir: Path) -> list[Invocation]:
    check = functools.partial(oracle.check_simulate, n_items=DEFAULT_N_ITEMS, trials=SWEEP_TRIALS,
                              prevalence=DEFAULT_PREVALENCE, fix_rate=DEFAULT_FIX_RATE)
    argv = ("simulate", "--seed", str(seed), "--trials", str(SWEEP_TRIALS), "--output", "json")
    cells = len(DEFAULT_PREVALENCE) * len(DEFAULT_FIX_RATE)
    return [Invocation("simulate", argv, check, DEFAULT_N_ITEMS * SWEEP_TRIALS * 2 * cells)]


def population(seed: int, workdir: Path) -> list[Invocation]:
    p, f = POPULATION_CELL
    check = functools.partial(oracle.check_simulate, n_items=POPULATION_ITEMS,
                              trials=POPULATION_TRIALS, prevalence=(p,), fix_rate=(f,))
    argv = ("simulate", "--seed", str(seed), "--n-items", str(POPULATION_ITEMS),
            "--prevalence", repr(p), "--fix-rate", repr(f),
            "--trials", str(POPULATION_TRIALS), "--output", "json")
    return [Invocation("simulate", argv, check, POPULATION_ITEMS * POPULATION_TRIALS * 2)]


def cli_mix(seed: int, workdir: Path) -> list[Invocation]:
    rng = np.random.default_rng(seed)
    evidence_csv = workdir / "evidence.csv"
    tools_csv = workdir / "tools.csv"
    evidence_rows = write_evidence(evidence_csv, rng)
    tools = write_tools(tools_csv, rng)
    recall = round(float(rng.uniform(0.6, 0.95)), 4)
    precision = round(float(rng.uniform(0.6, 0.95)), 4)
    s = ("--seed", str(seed))
    sim = MIX_SIM
    return [
        Invocation(
            "analytic",
            ("analytic", *s, "--output", "csv", "--prevalence", _grid(ANALYTIC_GRID),
             "--fix-rate", _grid(ANALYTIC_GRID), "--recall", repr(recall),
             "--precision", repr(precision)),
            functools.partial(oracle.check_analytic_csv, grid=ANALYTIC_GRID, recall=recall,
                              precision=precision, n_items=DEFAULT_N_ITEMS),
        ),
        Invocation("case-study-composed", ("case-study", "composed", *s, "--output", "json"),
                   oracle.check_composed),
        Invocation(
            "case-study-rule-based",
            ("case-study", "rule-based", *s, "--method", "wilson", "--tools", str(tools_csv),
             "--output", "json"),
            functools.partial(oracle.check_rule_based, tools=tools),
        ),
        Invocation("evidence", ("evidence", str(evidence_csv), *s, "--output", "json"),
                   functools.partial(oracle.check_evidence, rows=evidence_rows)),
        Invocation("pbox-sample",
                   ("pbox-sample", *s, "--trials", str(PBOX_SAMPLES), "--output", "json"),
                   functools.partial(oracle.check_pbox_sample, n=PBOX_SAMPLES)),
        Invocation(
            "simulate-trace",
            ("simulate", *s, "--trace", "--evidence", str(evidence_csv),
             "--specificity", repr(sim["specificity"]), "--break-rate", repr(sim["break_rate"]),
             "--prevalence", repr(sim["prevalence"]), "--fix-rate", repr(sim["fix_rate"]),
             "--n-items", str(sim["n_items"]), "--trials", str(sim["trials"]), "--output", "json"),
            functools.partial(oracle.check_simulate, n_items=sim["n_items"], trials=sim["trials"],
                              prevalence=(sim["prevalence"],), fix_rate=(sim["fix_rate"],),
                              specificity=sim["specificity"], break_rate=sim["break_rate"]),
            sim["n_items"] * sim["trials"] * 2,
        ),
    ]


# Each function returns the workload's invocations for a seed; inputs go to
# the given directory.
BUILDERS = {"sweep": sweep, "population": population, "cli_mix": cli_mix}

WORKLOADS = tuple(BUILDERS)
