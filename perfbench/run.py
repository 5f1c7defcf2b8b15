#!/usr/bin/env python3
"""pipeuq benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

With ``--trace 0`` every CLI call runs in a fresh interpreter, one child at a
time, and the run reports the end-to-end metrics: ``setup_s`` (``import
pipeuq`` in a fresh interpreter, median of several), ``wall_s`` (the
workload's calls, each at its median over repeated passes, summed),
``peak_rss_mb`` (largest ``ru_maxrss`` of any child, from ``os.wait4``) and
``item_trials_per_s``. Times are calibrated: a fixed reference child
(calibrate.py) runs between timed calls, and each call's wall time is scaled
by ``CAL_REFERENCE_S`` over the mean of the calibration runs on either side.
On a shared host whose speed drifts by tens of percent within minutes this
cancels most of the drift; raw wall times are printed and saved as well.

With ``--trace 1`` the workload's calls run through ``pipeuq.cli.main`` in
this process with timing wrappers installed (see tracing.py), and the run
reports the per-layer metrics; spans go to ``perfbench/out/``.

Every output is checked (see oracle.py). Each child exit, each repeated output
compared byte for byte with the first, and each oracle check counts as one
operation; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
CALIBRATE = ROOT / "perfbench" / "calibrate.py"
# Calibrated times are seconds on a host where calibrate.py takes this long.
CAL_REFERENCE_S = 0.4
SETUP_IMPORTS = 4
IMPORTTIME_RUNS = 3
MIN_PASSES = 2
CHILD_TIMEOUT_S = 150
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"), ("item_trials_per_s", "1/s"))

ENV_SNIPPET = """
import json, platform
info = {"python": platform.python_version()}
for mod in ("numpy", "scipy", "numba"):
    try:
        info[mod] = __import__(mod).__version__
    except ImportError:
        info[mod] = None
try:
    from pipeuq._kernels import resolve_backend
    info["backend"] = resolve_backend()
except ImportError:
    info["backend"] = "absent"
print(json.dumps(info))
"""


class Ledger:
    """Counts operations and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{label}: {detail}")

    def extend(self, checks) -> None:
        for label, ok, detail in checks:
            self.record(label, ok, detail)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_child(args, stdout_path: Path, stderr_path: Path) -> tuple[float, int, int]:
    """Run ``python <args>`` to completion; return (wall s, max RSS KiB, exit code)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, proc.returncode


def environment(workdir: Path, ledger: Ledger) -> dict:
    """Versions, backend and host facts recorded with every result."""
    _, _, code = run_child(["-c", ENV_SNIPPET], workdir / "env.out", workdir / "env.err")
    ledger.record("env.exit", code == 0, _tail(workdir / "env.err"))
    try:
        info = json.loads((workdir / "env.out").read_text())
    except ValueError:
        info = {}
    info["PIPEUQ_BACKEND"] = os.environ.get("PIPEUQ_BACKEND")
    info["nproc"] = len(os.sched_getaffinity(0))
    info["cpu_model"] = _cpu_model()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        info[var] = os.environ.get(var)
    return info


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _tail(path: Path, limit: int = 400) -> str:
    text = path.read_text(encoding="utf-8", errors="replace") if path.exists() else ""
    return text[-limit:]


def repeat_passes(run_pass, seconds: float, min_passes: int = MIN_PASSES) -> int:
    """Run passes until another one would overrun ``seconds`` (at least ``min_passes``)."""
    start = time.perf_counter()
    durations: list[float] = []
    while True:
        t = time.perf_counter()
        run_pass()
        durations.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        if len(durations) >= min_passes and elapsed + statistics.mean(durations) > seconds:
            return len(durations)


class OutputLog:
    """First output of each call, and byte-identity of every later one."""

    def __init__(self, ledger: Ledger):
        self.ledger = ledger
        self.first: dict[str, bytes] = {}

    def add(self, name: str, data: bytes) -> None:
        if name in self.first:
            self.ledger.record(f"{name}.identical_rerun", data == self.first[name],
                               "output differs from the first run")
        else:
            self.first[name] = data

    def check(self, invocations) -> None:
        import_src()
        for inv in invocations:
            data = self.first.get(inv.name)
            if data is None:
                continue
            try:
                self.ledger.extend(inv.check(data.decode("utf-8")))
            except (KeyError, TypeError, ValueError) as exc:
                self.ledger.record(f"{inv.name}.oracle", False, f"{type(exc).__name__}: {exc}")


def import_src() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


class Clock:
    """Times children, each followed by a calibration run."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.cals: list[float] = []
        self._calibrate()
        self.cals.clear()  # the first run in a process reads fast; keep it out
        self._calibrate()

    def _calibrate(self) -> None:
        out, err = self.workdir / "calibrate.out", self.workdir / "calibrate.err"
        wall, _, code = run_child([str(CALIBRATE)], out, err)
        if code != 0:
            raise RuntimeError(f"calibration failed: {_tail(err)}")
        self.cals.append(wall)

    def run(self, args, out: Path, err: Path) -> tuple[float, float, int, int]:
        """(raw wall s, calibrated s, max RSS KiB, exit code) of ``python <args>``."""
        before = self.cals[-1]
        wall, maxrss, code = run_child(args, out, err)
        self._calibrate()
        return wall, wall * CAL_REFERENCE_S * 2 / (before + self.cals[-1]), maxrss, code


def run_untraced(workload: str, seed: int, seconds: float, workdir: Path, ledger: Ledger) -> dict:
    env = environment(workdir, ledger)
    clock = Clock(workdir)
    raw: dict[str, list[float]] = {"setup": []}
    cal: dict[str, list[float]] = {"setup": []}
    for _ in range(SETUP_IMPORTS):
        wall, scaled, _, code = clock.run(["-c", "import pipeuq"], workdir / "setup.out", workdir / "setup.err")
        ledger.record("setup.exit", code == 0, _tail(workdir / "setup.err"))
        raw["setup"].append(wall)
        cal["setup"].append(scaled)

    invocations = workloads.BUILDERS[workload](seed, workdir)
    for inv in invocations:
        raw[inv.name], cal[inv.name] = [], []
    rss: list[int] = []
    log = OutputLog(ledger)

    def one_pass():
        for inv in invocations:
            out, err = workdir / f"{inv.name}.out", workdir / f"{inv.name}.err"
            wall, scaled, maxrss, code = clock.run(["-m", "pipeuq.cli", *inv.argv], out, err)
            raw[inv.name].append(wall)
            cal[inv.name].append(scaled)
            rss.append(maxrss)
            ledger.record(f"{inv.name}.exit", code == 0, f"exit {code}: {_tail(err)}")
            log.add(inv.name, out.read_bytes())

    passes = repeat_passes(one_pass, seconds)
    log.check(invocations)

    median = {name: statistics.median(v) for name, v in cal.items()}
    calls = [inv.name for inv in invocations]
    sim_time = sum(median[inv.name] for inv in invocations if inv.item_trials)
    metrics = {
        "setup_s": median["setup"],
        "wall_s": sum(median[name] for name in calls),
        "peak_rss_mb": max(rss) / 1024,
        "item_trials_per_s": sum(inv.item_trials for inv in invocations) / sim_time,
    }
    lines = [f"calibration: n={len(clock.cals)}  median={statistics.median(clock.cals):.4f} s "
             f"(reference {CAL_REFERENCE_S} s)"]
    lines += [f"{name}: n={len(v)}  calibrated median={median[name]:.4f} s  max={max(v):.4f} s  "
              f"raw median={statistics.median(raw[name]):.4f} s"
              for name, v in cal.items()]
    return {"env": env, "passes": passes, "metrics": metrics, "lines": lines,
            "samples": {"calibration": clock.cals, "raw": raw, "calibrated": cal}}


IMPORTTIME = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)")


def import_times(workdir: Path, ledger: Ledger) -> dict[str, float]:
    """Median cumulative ``-X importtime`` of each module, in seconds (0 if absent)."""
    runs: dict[str, list[float]] = {m: [] for m in tracing.IMPORT_MODULES}
    for _ in range(IMPORTTIME_RUNS):
        _, _, code = run_child(["-X", "importtime", "-c", "import pipeuq"],
                               workdir / "importtime.out", workdir / "importtime.err")
        ledger.record("importtime.exit", code == 0, _tail(workdir / "importtime.err"))
        found = {}
        for line in (workdir / "importtime.err").read_text(errors="replace").splitlines():
            match = IMPORTTIME.match(line)
            if match and match.group(2) in runs:
                found[match.group(2)] = int(match.group(1)) / 1e6
        for module in runs:
            runs[module].append(found.get(module, 0.0))
    return {f"import.{m}_s": statistics.median(v) for m, v in runs.items()}


def run_traced(workload: str, seed: int, seconds: float, workdir: Path, ledger: Ledger) -> dict:
    env = environment(workdir, ledger)
    metrics = import_times(workdir, ledger)
    import_src()
    from pipeuq import cli

    invocations = workloads.BUILDERS[workload](seed, workdir)
    tracer = tracing.Tracer()
    log = OutputLog(ledger)
    walls = {False: [], True: []}

    def one_pass(traced: bool):
        start = time.perf_counter()
        for inv in invocations:
            out = workdir / f"{inv.name}.out"
            argv = [*inv.argv, "--out", str(out)]
            if traced:
                with tracer.span("cli.main"):
                    code = cli.main(argv)
            else:
                code = cli.main(argv)
            ledger.record(f"{inv.name}.exit", code == 0, f"exit {code}")
            log.add(inv.name, out.read_bytes())
        walls[traced].append(time.perf_counter() - start)

    one_pass(False)  # warm-up: first-call costs inside the process
    walls[False].clear()

    def pair():
        one_pass(False)
        tracer.install()
        tracer.begin_pass()
        try:
            one_pass(True)
        finally:
            tracer.uninstall()

    passes = repeat_passes(pair, seconds, min_passes=1)
    log.check(invocations)

    metrics.update(tracer.metrics())
    metrics["trace.overhead_ratio"] = statistics.median(walls[True]) / statistics.median(walls[False])
    spans_path = OUT / f"spans-{workload}-seed{seed}.json"
    t0 = tracer.spans[0][1] if tracer.spans else 0
    spans_path.write_text(json.dumps({
        "workload": workload, "seed": seed, "absent": tracer.absent, "env": env,
        "fields": ["name", "start_ns", "end_ns", "parent"],
        "spans": [[n, s - t0, e - t0, p] for n, s, e, p in tracer.spans],
    }), encoding="utf-8")
    lines = [f"traced passes: {passes}  spans: {len(tracer.spans)} -> {spans_path.relative_to(ROOT)}",
             f"absent hooks: {', '.join(tracer.absent) or 'none'}"]
    trial = metrics["simulator.run_trial.us_per_call"]
    if trial:
        children = sum(metrics[f"{s}.us_per_call"] * metrics[f"{s}.calls"]
                       for s in ("simulator.ground_truth", "simulator.classify_first",
                                 "simulator.classify_second", "simulator.fixer",
                                 "simulator.items_take_put")) / metrics["simulator.run_trial.calls"]
        lines.append(f"run_trial: {trial:.1f} us = children {children:.1f} us "
                     f"+ self {metrics['simulator.run_trial.self_us']:.1f} us")
    return {"env": env, "passes": passes, "metrics": metrics, "lines": lines,
            "absent": tracer.absent, "samples": {"untraced": walls[False], "traced": walls[True]}}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, Ledger]:
    ledger = Ledger()
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    try:
        runner = run_traced if trace else run_untraced
        result = runner(workload, seed, seconds, workdir, ledger)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = dict(tracing.per_layer_metrics() if trace else END_TO_END)
    result["metrics"] = {name: {"value": result["metrics"][name], "unit": unit}
                         for name, unit in units.items()}
    result.update(workload=workload, seed=seed, seconds=seconds, trace=int(trace),
                  attempted=ledger.attempted, failures=ledger.failures)
    (OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1), encoding="utf-8")
    return result, ledger


def report(result: dict) -> None:
    print(f"== {result['workload']} (seed {result['seed']}, {result['passes']} passes)")
    for line in result["lines"]:
        print(line)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    print("env " + json.dumps(result["env"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pipeuq" / "cli.py").is_file():
        print(f"error: no pipeuq sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        result, ledger = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(result)
        attempted += ledger.attempted
        failed += len(ledger.failures)
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
