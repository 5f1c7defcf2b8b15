"""Property test over the library: every public call returns or raises a ``PipeUQError``.

For each callable in ``pipeuq.__all__``, Hypothesis draws each argument from a
strategy chosen by the parameter's name (``kinds``): a probability, a count, a
trial count, a seed, a p-box or another record, a path or stream, a stream
name, a method or policy name. Each kind draws valid values and valid values at
the edges (0, 1, 2**53, -0.0, subnormals), and every kind also draws the same
wrong values (``WRONG``): whole floats, bools, NaN, +-inf, numpy scalars, 0-d
arrays and arrays of other shapes and dtypes, lists, None and str. A name with
no kind of its own draws from ``WRONG`` and valid numbers alike.

The call must return, or raise a subclass of ``PipeUQError``, and let no warning
escape. Two kinds of argument stay in their types, because failing otherwise is
the caller's type error and not a value to refuse:

- a record parameter (a domain, profile, fixer, p-box, sample list or tool list)
  gets a record built by its own class from drawn fields; each record class is
  itself a public callable here, drawn with every kind of field;
- a path is an existing file: a missing one is an ``OSError`` (exit 3 in the CLI).

Valid counts are drawn up to 50, besides the edges 2**53 and 2**63 - 1, which a
binomial draw takes in constant time, and valid trial counts stay at most 3, so
each example runs in about a millisecond.
"""

import contextlib
import inspect
import io
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import pipeuq
from pipeuq import (
    DEFAULT_RECALL_PBOX,
    ClassifierProfile,
    DomainSpec,
    EvidenceSample,
    FixerSpec,
    Interval,
    InvalidParameterError,
    PBoxParams,
    PipeUQError,
    SummaryStats,
    ToolRecord,
    agresti_coull_interval,
    composed_pipeline_case,
    fixer_load,
    inverse_lower,
    inverse_upper,
    load_samples,
    load_tool_records,
    pipeline_false_negatives,
    remove_outliers,
    round_half_away,
    rule_based_case_study,
    run_experiment,
    run_trial,
    trial_seed,
    wilson_interval,
)
from pipeuq.cli import cmd_analytic, main, write_report
from pipeuq.config import RunConfig, validate_config

WRONG = st.sampled_from([
    None, "", "0.5", "x", [0.5], [], (1, 2), {}, 1j, b"1", io.BytesIO(b"1"),
    math.nan, math.inf, -math.inf, -1.0, 1.5, 300.0, 1.0, 0.0, 1e300, -1, 2, 2**64, 10**400, True, False,
    np.float64(math.nan), np.float32(0.5), np.float16(-0.0), np.int64(1), np.int8(-1), np.uint64(2**64 - 1),
    np.bool_(True), np.complex128(0.5), np.array(0.5), np.array(3), np.array(math.inf), np.array([]),
    np.array([0.2, 0.5]), np.array([[0.1], [0.9]]), np.array([0.5, math.nan]), np.array([1, 2]),
    np.array(["a"]), np.array([True, False]), np.array([0.5], dtype=object),
])

EDGE_UNIT = [0, 1, 0.0, 1.0, -0.0, 5e-324, 2.2250738585072014e-308, 1 - 2**-53, 0.5]
UNIT_SCALAR = st.floats(0.0, 1.0) | st.sampled_from(EDGE_UNIT) | st.sampled_from([np.float64(0.25), True])
UNIT_ARRAY = hnp.arrays(np.float64, st.sampled_from([(), (1,), (2,), (3,), (2, 1)]), elements=st.floats(0.0, 1.0))
UNIT = UNIT_SCALAR | UNIT_ARRAY
EDGE_COUNTS = [2**53, 2**53 + 1, 2**63 - 1, 2**63, np.int64(7), np.uint8(3), np.array(5)]
COUNT = st.integers(-1, 50) | st.sampled_from(EDGE_COUNTS)


def record(cls, *fields):
    """Records of ``cls`` built from drawn fields, leaving out the draws it refuses."""
    def build(args):
        try:
            return cls(*args)
        except PipeUQError:
            return None
    return st.tuples(*fields).map(build).filter(lambda r: r is not None)


PBOX = st.lists(UNIT_SCALAR, min_size=3, max_size=3).map(sorted).map(lambda v: PBoxParams(v[0], v[2], v[1]))

FILES = {
    "evidence.csv": b"source_id,metric,value\np1,recall,0.62\np2,recall,0.70\np3,recall,0.10\np1,precision,0.7\n",
    "header_only.csv": b"source_id,metric,value\n",
    "bad_value.csv": b"source_id,metric,value\np1,recall,1.5\n",
    "bad_header.csv": b"id,metric,value\np1,recall,0.4\n",
    "latin1.csv": b"source_id,metric,value\np1,recall,0.5\xe9\n",
    "empty.csv": b"",
    "tools.csv": b"name,correct,generated\nA,7,20\nB,0,5\n",
    "bad_tools.csv": b"name,correct,generated\nA,9,2\n",
    # a count beyond 2**1024 would overflow an interval's float arithmetic
    "huge_tools.csv": b"name,correct,generated\nA,1,1" + b"0" * 400 + b"\n",
}


def kinds(directory):
    """The strategy of each parameter name: valid values of its kind, or ``WRONG``."""
    paths = [str(directory / name) for name in FILES] + [directory / "tools.csv"]
    texts = [content.decode("utf-8", "replace") for content in FILES.values()]
    # a str that names no file is a missing file
    wrong_type = WRONG.filter(lambda v: type(v) is not str)
    source = st.sampled_from(paths) | st.sampled_from(texts).map(io.StringIO) | wrong_type
    unit = UNIT | WRONG
    count = COUNT | WRONG
    seed = st.integers(-1, 2**70) | st.sampled_from([np.int64(1), np.uint64(2**64 - 1)]) | WRONG
    number = st.floats(allow_nan=True, allow_infinity=True) | st.integers(-(2**70), 2**70) | WRONG
    name = st.text(max_size=3) | WRONG
    domain = record(DomainSpec, count, unit)
    profile = record(ClassifierProfile, unit, unit, unit)
    fixer = record(FixerSpec, unit, unit)
    samples = st.lists(record(EvidenceSample, name, st.sampled_from(["recall", "precision"]), unit), max_size=6)
    return {
        "n_items": count, "successes": count, "correct": count, "generated": count, "index": count,
        "trials": st.integers(-1, 3) | st.sampled_from([2**53 + 1, 2**63, np.int64(2)]) | WRONG,
        "seed": seed, "master_seed": seed, "rng": seed | st.integers(0, 9).map(np.random.default_rng),
        "recall": unit, "precision": unit, "specificity": unit, "prevalence": unit, "fix_rate": unit,
        "break_rate": unit, "p": unit, "value": unit, "confidence": unit, "detector_recall": unit,
        "repair_accuracy": unit, "minimum": unit, "maximum": unit, "mean": unit,
        "x": number, "lo": number, "hi": number, "k": number,
        "domain": domain, "profile": profile, "fixer": fixer, "params": PBOX, "pbox": PBOX,
        "samples": samples | samples.map(tuple), "tools": st.lists(record(ToolRecord, name, count, count), max_size=4),
        "stats": st.builds(SummaryStats, count, count, unit, unit, unit),
        "source": source, "stream": st.sampled_from(["optimistic", "pessimistic", "Optimistic"]) | WRONG,
        "metric": st.sampled_from(["recall", "precision", "accuracy"]) | WRONG,
        "method": st.sampled_from(["agresti-coull", "wilson", "Wilson"]) | WRONG,
        "policy": st.sampled_from(["iqr", "none", "median"]) | WRONG,
    }


def parameters(func) -> list[str]:
    try:
        return list(inspect.signature(func).parameters)
    except ValueError:  # an exception class takes a message
        return ["message"]


CALLABLES = sorted(name for name in pipeuq.__all__ if callable(getattr(pipeuq, name)))


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    directory = tmp_path_factory.mktemp("inputs")
    for name, content in FILES.items():
        (directory / name).write_bytes(content)
    return kinds(directory)


def test_every_public_callable_is_drawn():
    # data constants (the default records and statistics) are the only public names left out
    assert set(pipeuq.__all__) - set(CALLABLES) == {"DEFAULT_RECALL_PBOX", "DEFAULT_RECALL_STATS",
                                                   "DEFAULT_TOOL_RECORDS"}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", CALLABLES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_public_call_returns_or_raises_a_pipeuq_error(table, name, data):
    func = getattr(pipeuq, name)
    args = [data.draw(table.get(p, st.floats() | WRONG), label=p) for p in parameters(func)]
    try:
        func(*args)
    except PipeUQError:
        pass


# One named case per failure found: each raised an untyped error, let a warning escape or
# stored a float count at the parent.

COUNT_BOUND = r"must be an integer in \[\d+, 9223372036854775807\]"


def test_a_whole_float_n_items_is_refused_before_the_draw():
    # the parent's DomainSpec took 300.0, and numpy's binomial then raised a TypeError
    with pytest.raises(InvalidParameterError, match=rf"^n_items {COUNT_BOUND}, got 300\.0$"):
        run_experiment(DomainSpec(300.0, 0.5), ClassifierProfile(0.9), FixerSpec(0.5), DEFAULT_RECALL_PBOX, 3, 1)
    with pytest.raises(InvalidParameterError, match=rf"^n_items {COUNT_BOUND}, got 300\.0$"):
        run_trial(DomainSpec(300.0, 0.5), ClassifierProfile(0.9), FixerSpec(0.5), 0.9, 1)


def test_n_items_beyond_int64_is_refused_before_the_draw():
    # the parent's binomial raised an OverflowError at 2**64; 2**63 - 1 still draws
    with pytest.raises(InvalidParameterError, match=rf"^n_items {COUNT_BOUND}, got 18446744073709551616$"):
        run_trial(DomainSpec(2**64, 0.5), ClassifierProfile(0.9), FixerSpec(0.5), 0.9, 1)
    assert run_trial(DomainSpec(2**63 - 1, 0.5), ClassifierProfile(0.9), FixerSpec(0.5), 0.9, 1).fn1 > 0


@pytest.mark.parametrize("call", [
    lambda: agresti_coull_interval(1, 10**400),
    lambda: wilson_interval(1, 10**400),
    lambda: composed_pipeline_case(10**400, 0.5, 0.5),
    lambda: DomainSpec(10**400, 0.5),
], ids=["agresti_coull_interval", "wilson_interval", "composed_pipeline_case", "DomainSpec"])
def test_a_count_beyond_int64_is_refused_before_float_arithmetic(call):
    # the parent raised "OverflowError: int too large to convert to float"
    with pytest.raises(InvalidParameterError, match=COUNT_BOUND):
        call()


def test_a_tools_file_with_a_count_beyond_int64_exits_2(tmp_path, capsys):
    # the parent's rule-based case study exited 4 with that OverflowError
    path = tmp_path / "tools.csv"
    path.write_text("name,correct,generated\nA,1,1" + "0" * 400 + "\n")
    assert main(["case-study", "rule-based", "--tools", str(path)]) == 2
    assert "A: generated must be an integer in [1, 9223372036854775807]" in capsys.readouterr().err


def test_a_config_keeps_its_counts_as_ints():
    # the parent's config kept a numpy n_items, and the JSON echo raised a TypeError
    cfg = RunConfig(n_items=np.int64(20), trials=np.uint8(3), seed=np.int64(7), case_n_items=True)
    validate_config(cfg, "analytic")
    assert [type(v) for v in (cfg.n_items, cfg.trials, cfg.seed, cfg.case_n_items)] == [int] * 4
    write_report(cmd_analytic(cfg), "json", io.StringIO())


def test_a_tool_record_refuses_whole_float_counts():
    # the parent stored 5.0 and 10.0
    with pytest.raises(InvalidParameterError, match=rf"^x: generated {COUNT_BOUND}, got 10\.0$"):
        ToolRecord("x", 5.0, 10.0)
    record = ToolRecord("x", np.int64(5), np.uint8(10))
    assert record == ("x", 5, 10) and type(record.correct) is type(record.generated) is int


def test_trial_seed_takes_a_numpy_integer():
    # the parent's seed check refused every integer that is no Python int
    assert trial_seed(np.int64(1), "optimistic", np.uint8(2)) == trial_seed(1, "optimistic", 2)


@pytest.mark.parametrize("load", [load_samples, load_tool_records])
def test_a_file_descriptor_is_no_source(load):
    # open() would take the int as a file descriptor, read it and close it. A copy of
    # fd 2 stands in for it, so a failure leaves this process's stderr open
    fd = os.dup(2)
    try:
        with pytest.raises(InvalidParameterError, match=rf"^source must be a path or a text stream, got {fd}$"):
            load(fd)
        os.fstat(fd)  # still open
    finally:
        with contextlib.suppress(OSError):
            os.close(fd)


@pytest.mark.parametrize("call", [
    lambda: Interval(None, 1.0),
    lambda: Interval(np.array([0.1, 0.2]), 1.0),
    lambda: agresti_coull_interval(1, 2, np.array([0.9, 0.95])),
    lambda: wilson_interval(1, 2, "0.95"),
    lambda: rule_based_case_study(method=["wilson"]),
    lambda: round_half_away(math.nan),
    lambda: round_half_away(math.inf),
    lambda: round_half_away("1"),
    lambda: remove_outliers([], policy=np.array(["iqr", "none"])),
    lambda: remove_outliers([], k="1"),
    lambda: remove_outliers([], k=10**400),  # k * IQR overflowed
    lambda: remove_outliers([], k=math.inf),  # inf * 0 is NaN, which removed every sample
    lambda: EvidenceSample("p1", np.array(["recall", "precision"]), 0.5),
    lambda: EvidenceSample(["p1"], "recall", 0.5),
    lambda: trial_seed(1, ["optimistic"], 0),
    lambda: inverse_lower(DEFAULT_RECALL_PBOX, 0.0, rng=1.5),
    lambda: inverse_upper(DEFAULT_RECALL_PBOX, 1.0, rng=np.array([0.5])),
], ids=["Interval-None", "Interval-array", "agresti_coull-array-confidence", "wilson-str-confidence",
        "rule_based-list-method", "round_half_away-nan", "round_half_away-inf", "round_half_away-str",
        "remove_outliers-array-policy", "remove_outliers-str-k", "remove_outliers-int-k-beyond-floats",
        "remove_outliers-inf-k", "EvidenceSample-array-metric",
        "EvidenceSample-list-source_id", "trial_seed-list-stream", "inverse_lower-float-rng",
        "inverse_upper-array-rng"])
def test_a_value_of_the_wrong_type_is_refused(call):
    # the parent raised a TypeError or numpy's ValueError, or (round_half_away) an OverflowError
    with pytest.raises(InvalidParameterError):
        call()


def test_round_half_away_keeps_an_int_exact():
    # the parent's x + 0.5 raised an OverflowError beyond 2**1024 and rounded beyond 2**53
    assert round_half_away(10**400) == 10**400 and round_half_away(2**53 + 1) == 2**53 + 1


@pytest.mark.parametrize("domain, profile, fixer", [
    (DomainSpec(10, np.array([0.1, 0.5])), ClassifierProfile(0.9), FixerSpec(0.5)),
    (DomainSpec(10, 0.5), ClassifierProfile(0.9, specificity=np.array([0.2, 0.4])), FixerSpec(0.5)),
    (DomainSpec(10, 0.5), ClassifierProfile(0.9), FixerSpec(np.array([[0.5], [0.7]]))),
], ids=["prevalence", "specificity", "fix_rate"])
def test_the_simulator_refuses_a_record_that_holds_an_array(domain, profile, fixer):
    # the parent's draws raised numpy's broadcast or truth-value ValueError
    with pytest.raises(InvalidParameterError, match="^a trial's "):
        run_experiment(domain, profile, fixer, DEFAULT_RECALL_PBOX, 3, 1)
    with pytest.raises(InvalidParameterError, match="^a trial's "):
        run_trial(domain, profile, fixer, 0.9, 1)


@pytest.mark.filterwarnings("error")
def test_a_numpy_metric_overflows_without_a_warning():
    # the parent let numpy's RuntimeWarning escape where a float overflows to inf silently
    domain = DomainSpec(10, 0.5)
    assert fixer_load(ClassifierProfile(0.5, 5e-324), domain) == math.inf
    assert fixer_load(ClassifierProfile(np.float64(0.5), np.float64(5e-324)), domain) == math.inf
    assert np.isinf(fixer_load(ClassifierProfile(np.array([0.5, 1.0]), 5e-324), domain)).all()
    fn_final, _ = pipeline_false_negatives(DomainSpec(2**53, 1), FixerSpec(1.0), np.float16(0.5))
    assert fn_final == math.inf
