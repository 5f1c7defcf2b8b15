"""Outside-in tracing of pipeuq: timing wrappers around each layer's calls.

The hook table ``HOOKS`` is the one place that says which functions are
timed. Each target names the attribute that callers resolve at call time
(``module:function`` or ``module:Class.method``), so the wrapper sees every
call without any change to the program. A target that no longer exists is
skipped; a hook whose targets are all gone is reported as absent.

Spans are kept in memory as ``[name, start_ns, end_ns, parent_index]``. The
self time of a span is its duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass

_CLI_CORE = ("pipeline_false_negatives", "pipeline_false_positives", "pipeline_far",
             "pipeline_fix_rate", "pipeline_prevalence", "pipeline_true_positives",
             "pipeline_tpr", "fixer_load")
_PBOX_CORE = ("pipeline_false_negatives", "pipeline_fix_rate", "pipeline_prevalence")


@dataclass(frozen=True)
class Hook:
    """One traced layer boundary.

    ``ordinals`` names successive calls under one parent span (the first and
    second classifier pass of a trial). ``items`` adds ``len()`` of the first
    argument to ``simulator.items_walked``; ``repeats`` counts calls whose
    arguments were already seen in the pass; ``bytes`` sums ``len()`` of the
    result.
    """

    name: str
    targets: tuple[str, ...]
    ordinals: tuple[str, ...] = ()
    items: bool = False
    repeats: bool = False
    bytes: bool = False

    @property
    def span_names(self) -> tuple[str, ...]:
        return self.ordinals or (self.name,)


HOOKS = (
    Hook("simulator.run_trial", ("pipeuq.simulator:run_trial",)),
    Hook("simulator.trial_seed", ("pipeuq.simulator:trial_seed",)),
    Hook("simulator.ground_truth", ("pipeuq.simulator:generate_ground_truth",)),
    Hook("simulator.classify", ("pipeuq.simulator:classify",), items=True,
         ordinals=("simulator.classify_first", "simulator.classify_second")),
    Hook("simulator.fixer", ("pipeuq.simulator:apply_fixer",), items=True),
    Hook("simulator.items_take_put", ("pipeuq.simulator:Items.take", "pipeuq.simulator:Items.put")),
    Hook("kernels.classify_counts", ("pipeuq._kernels:classify_counts",)),
    Hook("kernels.fixer_flags", ("pipeuq._kernels:fixer_flags",)),
    Hook("simulator.aggregate", ("pipeuq.simulator:_aggregate",)),
    Hook("pbox.sample_recall_streams",
         ("pipeuq.simulator:sample_recall_streams", "pipeuq.cli:sample_recall_streams"), repeats=True),
    Hook("core", tuple(f"pipeuq.cli:{n}" for n in _CLI_CORE) + tuple(f"pipeuq.pbox:{n}" for n in _PBOX_CORE)),
    Hook("evidence.load_samples", ("pipeuq.cli:load_samples",)),
    Hook("evidence.remove_outliers", ("pipeuq.cli:remove_outliers",)),
    Hook("evidence.summarize", ("pipeuq.cli:summarize",)),
    Hook("casestudies.composed_pipeline_case", ("pipeuq.cli:composed_pipeline_case",)),
    Hook("casestudies.rule_based_case_study", ("pipeuq.cli:rule_based_case_study",)),
    Hook("config.build_config", ("pipeuq.cli:build_config",)),
    Hook("cli.cmd_analytic", ("pipeuq.cli:cmd_analytic",)),
    Hook("cli.cmd_simulate", ("pipeuq.cli:cmd_simulate",)),
    Hook("cli.cmd_evidence", ("pipeuq.cli:cmd_evidence",)),
    Hook("cli.cmd_case_study", ("pipeuq.cli:cmd_case_study",)),
    Hook("cli.cmd_pbox_sample", ("pipeuq.cli:cmd_pbox_sample",)),
    Hook("cli.render", ("pipeuq.cli:render",), bytes=True),
)

# Fresh-process `-X importtime` cumulative times, in seconds.
IMPORT_MODULES = ("pipeuq", "pipeuq.casestudies", "pipeuq.simulator", "numpy")

# Per-span metrics: mean wall time per call, calls per traced pass, and mean
# self time per call.
SPAN_STATS = (("us_per_call", "us"), ("calls", "count"), ("self_us", "us"))
EXTRA_METRICS = (
    ("simulator.items_walked", "count"),
    ("simulator.trials", "count"),
    ("pbox.sample_recall_streams.repeat_ratio", "ratio"),
    ("core.us_total", "us"),
    ("cli.render.bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    names = [(f"import.{m}_s", "s") for m in IMPORT_MODULES]
    for hook in HOOKS:
        for span in hook.span_names:
            names += [(f"{span}.{stat}", unit) for stat, unit in SPAN_STATS]
    return names + list(EXTRA_METRICS)


def _resolve(target: str):
    """``(owner, attribute)`` for a target, or None when it no longer exists."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


class Tracer:
    """Installs the hook wrappers and records spans while installed."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._children: dict[tuple[int, str], int] = defaultdict(int)
        self._installed: list[tuple[object, str, object]] = []
        self._seen: set = set()
        self.absent: list[str] = []
        self.passes = 0
        self.items_walked = 0
        self.repeats = 0
        self.repeat_calls = 0
        self.rendered_bytes = 0

    def install(self) -> None:
        self.absent = []
        for hook in self.hooks:
            found = [r for r in map(_resolve, hook.targets) if r is not None]
            if not found:
                self.absent.append(hook.name)
            for owner, attr in found:
                original = owner.__dict__.get(attr, getattr(owner, attr))
                self._installed.append((owner, attr, original))
                setattr(owner, attr, self._wrap(hook, getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def begin_pass(self) -> None:
        """Start one traced pass over a workload; repeats are per pass."""
        self.passes += 1
        self._seen.clear()

    def span(self, name: str):
        """Context manager recording a span around the benchmark's own calls."""
        return _Span(self, name)

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0, 0, parent]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        return record

    def _wrap(self, hook: Hook, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            name = hook.name
            if hook.ordinals:
                k = tracer._children[parent, hook.name]
                tracer._children[parent, hook.name] = k + 1
                name = hook.ordinals[min(k, len(hook.ordinals) - 1)]
            if hook.items and args:
                tracer.items_walked += len(args[0])
            if hook.repeats:
                key = repr((args, sorted(kwargs.items())))
                tracer.repeat_calls += 1
                tracer.repeats += key in tracer._seen
                tracer._seen.add(key)
            record = tracer._open(name)
            record[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter_ns()
                tracer._stack.pop()
            if hook.bytes:
                tracer.rendered_bytes += len(result)
            return result

        return wrapper

    def self_times(self) -> list[int]:
        """Self time of every span in nanoseconds."""
        child = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _), c in zip(self.spans, child)]

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of all traced passes (calls are per pass)."""
        passes = max(self.passes, 1)
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, int] = defaultdict(int)
        own: dict[str, int] = defaultdict(int)
        for (name, start, end, _), self_ns in zip(self.spans, self.self_times()):
            calls[name] += 1
            total[name] += end - start
            own[name] += self_ns
        out: dict[str, float] = {}
        for hook in self.hooks:
            for span in hook.span_names:
                n = calls[span]
                out[f"{span}.us_per_call"] = total[span] / n / 1e3 if n else 0.0
                out[f"{span}.calls"] = n / passes
                out[f"{span}.self_us"] = own[span] / n / 1e3 if n else 0.0
        trials = calls["simulator.run_trial"]
        out["simulator.items_walked"] = self.items_walked / trials if trials else 0.0
        out["simulator.trials"] = trials / passes
        out["pbox.sample_recall_streams.repeat_ratio"] = (
            self.repeats / self.repeat_calls if self.repeat_calls else 0.0)
        out["core.us_total"] = total["core"] / 1e3 / passes
        out["cli.render.bytes"] = self.rendered_bytes / passes
        return out


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.record = self.tracer._open(self.name)
        self.record[1] = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.record[2] = time.perf_counter_ns()
        self.tracer._stack.pop()
        return False
