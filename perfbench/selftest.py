#!/usr/bin/env python3
"""Tests of the benchmark itself: python3 perfbench/selftest.py

Checks that BENCHMARK.json names what the code reports, that the oracles
accept real pipeuq output and count a deliberately wrong oracle input as a
failure, that a changed rerun is counted, and that a hook whose function no
longer exists is reported as absent rather than raising.
"""

from __future__ import annotations

import functools
import json
import sys
import tempfile
from pathlib import Path

import oracle
import run
import tracing
import workloads

run.import_src()
from pipeuq import cli  # noqa: E402


def _cli_output(tmp: Path, *argv: str) -> str:
    out = tmp / "out.txt"
    assert cli.main([*argv, "--out", str(out)]) == 0, argv
    return out.read_text(encoding="utf-8")


def test_benchmark_json_matches_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.per_layer_metrics()


def test_simulate_oracle_counts_wrong_input(tmp: Path):
    text = _cli_output(tmp, "simulate", "--seed", "3", "--trials", "60", "--prevalence", "0.5",
                       "--fix-rate", "0.7", "--output", "json")
    right = dict(n_items=10_000, trials=60, prevalence=(0.5,), fix_rate=(0.7,))
    checks = oracle.check_simulate(text, **right)
    assert len(checks) == 4 and all(ok for _, ok, _ in checks), checks
    # the report is real; the oracle is told the wrong fix rate
    ledger = run.Ledger()
    inv = workloads.Invocation("simulate", (), functools.partial(oracle.check_simulate, **{**right, "fix_rate": (0.9,)}))
    log = run.OutputLog(ledger)
    log.add(inv.name, text.encode())
    log.check([inv])
    assert ledger.attempted == 4 and len(ledger.failures) >= 2, ledger.failures


def test_break_rate_oracle(tmp: Path):
    args = dict(n_items=10_000, trials=150, prevalence=(0.3,), fix_rate=(0.7,), specificity=0.9, break_rate=0.05)
    text = _cli_output(tmp, "simulate", "--seed", "5", "--trials", "150", "--prevalence", "0.3",
                       "--fix-rate", "0.7", "--specificity", "0.9", "--break-rate", "0.05", "--output", "json")
    assert all(ok for _, ok, _ in oracle.check_simulate(text, **args))
    wrong = oracle.check_simulate(text, **{**args, "break_rate": 0.3})
    assert not all(ok for _, ok, _ in wrong), wrong


def test_cli_mix_oracles(tmp: Path):
    ledger = run.Ledger()
    invocations = workloads.cli_mix(7, tmp)
    log = run.OutputLog(ledger)
    for inv in invocations:
        log.add(inv.name, _cli_output(tmp, *inv.argv).encode())
    log.check(invocations)
    assert not ledger.failures, ledger.failures
    analytic = next(i for i in invocations if i.name == "analytic")
    wrong = oracle.check_analytic_csv(log.first["analytic"].decode(), grid=workloads.ANALYTIC_GRID,
                                      recall=analytic.check.keywords["recall"] + 0.01,
                                      precision=analytic.check.keywords["precision"], n_items=10_000)
    assert not all(ok for _, ok, _ in wrong)


def test_changed_rerun_is_counted():
    ledger = run.Ledger()
    log = run.OutputLog(ledger)
    log.add("x", b"same")
    log.add("x", b"same")
    log.add("x", b"changed")
    assert ledger.attempted == 2 and len(ledger.failures) == 1


def test_absent_hook_and_span_accounting(tmp: Path):
    hooks = tracing.HOOKS + (
        tracing.Hook("gone.function", ("pipeuq.simulator:no_such_function",)),
        tracing.Hook("gone.module", ("pipeuq.no_such_module:f",)),
    )
    tracer = tracing.Tracer(hooks)
    tracer.install()
    tracer.begin_pass()
    try:
        _cli_output(tmp, "simulate", "--seed", "1", "--trials", "5", "--output", "json")
    finally:
        tracer.uninstall()
    assert tracer.absent == ["gone.function", "gone.module"], tracer.absent
    assert not hasattr(cli.render, "__wrapped__"), "uninstall left a wrapper in place"
    m = tracer.metrics()
    assert m["gone.function.calls"] == 0 and m["gone.module.us_per_call"] == 0
    trials = m["simulator.trials"]
    assert trials == 12 * 2 * 5
    assert m["simulator.classify_first.calls"] == m["simulator.classify_second.calls"] == trials
    children = sum(m[f"{s}.us_per_call"] * m[f"{s}.calls"] for s in (
        "simulator.ground_truth", "simulator.classify_first", "simulator.classify_second",
        "simulator.fixer", "simulator.items_take_put")) / trials
    total = m["simulator.run_trial.us_per_call"]
    assert abs(children + m["simulator.run_trial.self_us"] - total) < 1e-6 * total
    assert m["pbox.sample_recall_streams.repeat_ratio"] == 11 / 12


def main() -> int:
    tests = [test_benchmark_json_matches_code, test_simulate_oracle_counts_wrong_input,
             test_break_rate_oracle, test_cli_mix_oracles, test_changed_rerun_is_counted,
             test_absent_hook_and_span_accounting]
    run.OUT.mkdir(parents=True, exist_ok=True)
    failed = 0
    for test in tests:
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            try:
                test(Path(tmp)) if test.__code__.co_argcount else test()
                print(f"ok   {test.__name__}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {test.__name__}: {exc}")
    print(f"{len(tests) - failed}/{len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
