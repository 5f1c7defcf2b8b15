"""The streaming report writer: JSON bytes, strict numbers, ``--out`` destinations."""

import csv
import io
import json
import math
import os
import stat
import threading

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from pipeuq import __version__, cli
from pipeuq.cli import ReportEnvelope, main, write_report

LENGTHS = (0, 1, 4096, 4097)  # around one slice of the array encoder


def envelope(config, results) -> ReportEnvelope:
    return ReportEnvelope(config, results, ("a",), lambda: [], lambda: "")


def written(config, results) -> str:
    fh = io.StringIO()
    write_report(envelope(config, results), "json", fh)
    return fh.getvalue()


def assert_same_text(got: str, expected: str):
    """``got == expected``, reported by the lengths and the first differing offset: pytest's diff
    of two documents of hundreds of KB can run for minutes."""
    if got != expected:
        at = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b), min(len(got), len(expected)))
        context = slice(max(at - 60, 0), at + 60)
        pytest.fail(f"lengths {len(got)} and {len(expected)}, first difference at offset {at}: "
                    f"{got[context]!r} against {expected[context]!r}", pytrace=False)


def oracle(config, results) -> str:
    doc = {"version": __version__, "config": config, "results": results}
    return json.dumps(doc, indent=2, sort_keys=True, default=as_list) + "\n"


def as_list(value) -> list:
    """An array, or the lists, arrays and dicts of columns a callable yields joined, as one list."""
    parts = value() if callable(value) else [value]
    return [v for part in parts for v in (
        part.tolist() if isinstance(part, np.ndarray)
        else [dict(zip(part, values)) for values in zip(*part.values())] if isinstance(part, dict)
        else part
    )]


# a native C-contiguous float64 slice with no NaN or infinity is written by orjson, any other
# by the stdlib's encoder, and a value of magnitude outside [1e-4, 1e16), but a zero, by repr:
# the in-range kinds hold each edge of that range, and the outlier kinds values outside it
EDGES = [1e-4, np.nextafter(1e16, 0), 0.0, -0.0]
OUTLIERS = [5e-324, 1e-5, 1e16]
MORE_OUTLIERS = [5e-324, -1e-5, np.nextafter(1e-4, 0), 1e16, -1.7976931348623157e308, 2.5e-300, 1e22]


def sample_array(length: int, kind: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "int64":
        return rng.integers(-(2**62), 2**62, length)
    if kind == "bool":
        return rng.random(length) < 0.5
    if kind == "float64":  # magnitudes from 1e-300 to 1e300, a third of them -0.0
        values = rng.standard_normal(length) * 10.0 ** rng.integers(-300, 300, length)
        values[: length // 3] = -0.0
        return values
    if kind == "uniform":  # as p_chunks draws them
        return rng.random(length)
    # in range, the edges at random places
    values = rng.choice([-1.0, 1.0], length) * 10.0 ** rng.uniform(-4, 16, length)
    values[rng.permutation(length)[: len(EDGES)]] = EDGES[:length]
    if kind == "one_outlier" and length:
        values[rng.integers(length)] = OUTLIERS[seed % len(OUTLIERS)]
    if kind == "slice_ends":  # outliers at the first and last index of every slice
        ends = [i for start in range(0, length, cli._BATCH) for i in (start, min(start + cli._BATCH, length) - 1)]
        values[ends] = rng.choice(MORE_OUTLIERS, len(ends))
    if kind == "adjacent_outliers" and length:  # a run of outliers next to each other
        start = rng.integers(length)
        values[start:start + 3] = rng.choice(MORE_OUTLIERS, len(values[start:start + 3]))
    if kind == "all_outliers":  # every magnitude below 1e-4, but no zero, or from 1e16 up
        exponent = np.where(rng.random(length) < 0.5, rng.uniform(-320, -4.0001, length), rng.uniform(16, 308, length))
        values = rng.choice([-1.0, 1.0], length) * 10.0 ** exponent
        values[rng.permutation(length)[: len(MORE_OUTLIERS)]] = MORE_OUTLIERS[:length]
    if kind == "float32":
        return values.astype(np.float32)
    if kind == "big_endian":
        return values.astype(">f8")
    if kind == "strided":
        return np.repeat(values, 2)[::2]  # a view of every other element
    return values


FLOAT_KINDS = ["float64", "uniform", "in_range", "one_outlier", "slice_ends", "adjacent_outliers", "all_outliers",
               "float32", "strided", "big_endian"]


scalars = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, 1.7976931348623157e308]),
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.none(),
    st.text(),  # non-ASCII too, written as \u escapes
)
arrays = st.builds(sample_array, st.sampled_from(LENGTHS), st.sampled_from([*FLOAT_KINDS, "int64", "bool"]),
                   st.integers(0, 2**32 - 1))
# a flat list longer than one slice
long_lists = st.builds(lambda length, seed: sample_array(length, "float64", seed).tolist(),
                       st.sampled_from(LENGTHS), st.integers(0, 2**32 - 1))
# strs that the template of a dict of columns must not take for one number
record_values = st.one_of(scalars, st.sampled_from(["a,b", "[1]", "{", "}", "%s", "50%", ""]))


@st.composite
def records(draw) -> dict:
    """A dict of equal-length columns, written as one dict per index: each column holds varied
    values, one value repeated as the same object, or lists, which send the part dict by dict."""
    n = draw(st.sampled_from([0, 1, 2, 5, 4097]))
    columns = {}
    for key in draw(st.lists(st.text(max_size=4), min_size=1, max_size=3, unique=True)):
        kind = draw(st.sampled_from(["varied", "same", "lists"]))
        if kind == "same":
            columns[key] = [draw(record_values)] * n
        elif kind == "lists" and n < 10:
            columns[key] = draw(st.lists(st.lists(scalars, max_size=2), min_size=n, max_size=n))
        else:  # up to six values drawn, repeated to the length
            columns[key] = (draw(st.lists(record_values, min_size=min(n, 6), max_size=min(n, 6))) * n)[:n]
    return columns


flat = st.one_of(
    st.lists(scalars, max_size=6),
    arrays,
    long_lists,
    # a callable, written as one list joined from the lists, arrays and dicts of columns it yields
    st.lists(st.one_of(arrays, long_lists, records()), max_size=3).map(lambda parts: lambda: iter(parts)),
)
documents = st.recursive(
    st.one_of(scalars, flat, st.just({}), st.just([])),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(), children, max_size=4),
    ),
    max_leaves=12,
)


def around_a_slice(length: int):
    values = sample_array(length, "float64", length)
    results = {"array": values, "list": values.tolist(), "rows": [{"x": values, "y": [values, -0.0]}],
               "parts": lambda: iter([values, [], values.tolist()]),
               "kinds": {kind: sample_array(length, kind, length) for kind in FLOAT_KINDS},
               "outliers": [sample_array(length, "one_outlier", seed) for seed in range(len(OUTLIERS))],
               # analytic's metric lists: a grid row's prevalence, its fix rates and one metric
               "cells": lambda: iter([{"prevalence": [0.5] * length, "fix_rate": values[::-1].tolist(),
                                       "value": values.tolist()}] * 2),
               # equal values of other JSON: only a column of one object is written once
               "equal": lambda: iter([{"zero": [0.0, -0.0, 0.0], "one": [1, 1.0, True]}]),
               # a column of arrays, or of callables, which the template refuses: written dict by dict
               "held": lambda: iter([{"x": [values[:2], values[1:3]], "y": [0.5, None]},
                                     {"x": [lambda: iter([values[:1], [0.25]]), lambda: iter([])]}])}
    return example(config={"k": [0.5, None]}, results=results)


# no shrinking: a failing example holds arrays of thousands of elements, and
# each shrink step re-encodes them in pure Python
@settings(max_examples=200, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(config=st.dictionaries(st.text(), documents, max_size=4), results=documents)
@around_a_slice(0)
@around_a_slice(1)
@around_a_slice(4096)
@around_a_slice(4097)
def test_json_matches_indented_dumps(config, results):
    assert_same_text(written(config, results), oracle(config, results))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["scalar", "leaf dict", "flat list", "long list", "array", "in-range array",
                                   "callable", "columns", "one-value column"])
def test_non_finite_number_raises(bad, where):
    tail = [0.25] * 5000 + [bad]
    in_range = sample_array(3 * cli._BATCH, "in_range", 0)
    in_range[cli._BATCH + 7] = bad  # in the second slice; the first goes to orjson
    results = {
        "scalar": {"x": bad, "nested": [{"y": 1}]},
        "leaf dict": {"x": {"lo": 0.0, "hi": bad}},
        "flat list": [0.5, bad, None],
        "long list": tail,
        "array": np.array(tail),
        "in-range array": {"x": in_range},
        "callable": {"x": lambda: iter([[0.5], np.array(tail)])},
        "columns": {"x": lambda: iter([{"a": [0.5, 0.5], "b": [0.25, 0.5]}, {"a": [0.5, bad], "b": [0.5, 0.5]}])},
        "one-value column": {"x": lambda: iter([{"a": [bad] * 3, "b": [0.25, 0.5, 0.75]}])},
    }[where]
    with pytest.raises(ValueError):
        written({}, results)


def test_csv_written_in_batches_matches_one_pass():
    # blocks of 1, 7 and 5000 rows, so small blocks share a write and a large one is cut; the first
    # two hold a str, which csv.writer writes, and the others only numbers and None
    rows = [[i, i / 7, None, "é" if i < 8 else i] for i in range(10_000)]
    cuts = [0, 1, 8, 5008, 10_000]
    blocks = [tuple(map(list, zip(*rows[a:b]))) for a, b in zip(cuts, cuts[1:])]
    fh = io.StringIO()
    write_report(ReportEnvelope({}, {}, ("i", "x", "none", "s"), lambda: iter(blocks), None), "csv", fh)
    expected = "i,x,none,s\n" + "".join(f"{i},{i / 7!r},,{'é' if i < 8 else i}\n" for i in range(10_000))
    assert_same_text(fh.getvalue(), expected)


csv_fields = st.one_of(scalars, st.sampled_from(["a,b", 'say "hi"', "two\nlines", "cr\rhere", "", " ", "\t",
                                                 math.nan, math.inf, -math.inf]))


@st.composite
def csv_blocks(draw, width: int) -> tuple:
    """A block of ``width`` equal-length columns: each a list or tuple of up to six drawn fields,
    repeated to the length, or an array of any kind that the JSON writer takes."""
    n = draw(st.sampled_from([0, 1, 2, 5, cli._BATCH, cli._BATCH + 1]))
    block = []
    for _ in range(width):
        if draw(st.booleans()):
            values = (draw(st.lists(csv_fields, min_size=min(n, 6), max_size=min(n, 6))) * n)[:n]
            block.append(tuple(values) if draw(st.booleans()) else values)
        else:
            block.append(draw(st.builds(sample_array, st.just(n), st.sampled_from([*FLOAT_KINDS, "int64", "bool"]),
                                        st.integers(0, 2**32 - 1))))
    return tuple(block)


@st.composite
def csv_reports(draw) -> tuple:
    columns = tuple(draw(st.lists(csv_fields, min_size=1, max_size=4)))
    return columns, draw(st.lists(csv_blocks(len(columns)), max_size=4))


# no shrinking: a failing example holds blocks of thousands of rows
@settings(max_examples=300, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(report=csv_reports())
@example(report=(("a",), [(["x,y", 1.5, None, 'q"', "line\nbreak", "", "\r"],), ([1.5, None],), ([None],)]))
@example(report=(("a", "b"), [([1, None, 2.5], [None, 2, -0.0])]))
@example(report=(("i", "x"), [(list(range(cli._BATCH + 5)), [i / 7 for i in range(cli._BATCH + 5)]),
                              (["a,b"], [None])]))  # past the first write
# a float32 column in a slice that csv.writer writes: 1114241408.0 as a list item, 1.1142414e+09 as a scalar
@example(report=(("x", "s"), [(np.array([1e-5, 1e16, 0.5, 1114241408.0], dtype=np.float32), ["a"] * 4)]))
def test_csv_matches_the_csv_module(report):
    # the zipped numbers, or csv.writer for a slice with a value that csv writes otherwise
    columns, blocks = report
    fh = io.StringIO()
    write_report(ReportEnvelope({}, {}, columns, lambda: iter(blocks), None), "csv", fh)
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(columns)
    for block in blocks:
        writer.writerows(zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in block)))
    assert_same_text(fh.getvalue(), expected.getvalue())


def test_csv_writes_nothing_when_its_first_batch_fails():
    def blocks():
        yield [1], [2.5]
        raise ValueError("a cell that cannot be computed")

    fh = io.StringIO()
    with pytest.raises(ValueError):
        write_report(ReportEnvelope({}, {}, ("a", "b"), blocks, None), "csv", fh)
    assert fh.getvalue() == ""


def test_failed_write_keeps_existing_out(tmp_path, monkeypatch):
    target = tmp_path / "report.json"
    target.write_text("previous report\n")
    sample = cli.cmd_pbox_sample

    def broken(cfg):
        # the sorted key comes last, after the sample arrays reached the file
        env = sample(cfg)
        env.results["zz"] = math.nan
        return env

    monkeypatch.setattr(cli, "cmd_pbox_sample", broken)
    argv = ["pbox-sample", "--trials", "5000", "--output", "json", "--out", str(target)]
    assert main(argv) == 4
    assert target.read_text() == "previous report\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]

    monkeypatch.setattr(cli, "cmd_pbox_sample", sample)
    assert main(argv) == 0
    assert json.loads(target.read_text())["results"]["count"] == 5000
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json"]


SAMPLE = ["pbox-sample", "--trials", "5000", "--output", "json"]


def assert_report(text: str):
    assert json.loads(text)["results"]["count"] == 5000


@pytest.fixture
def created(monkeypatch):
    """The permission bits of each file ``os.open`` creates, read as it is created."""
    modes, real = [], os.open

    def recording(path, flags, mode=0o777, **kwargs):
        fd = real(path, flags, mode, **kwargs)
        if flags & os.O_CREAT:
            modes.append(stat.S_IMODE(os.fstat(fd).st_mode))
        return fd

    monkeypatch.setattr(os, "open", recording)
    return modes


@pytest.mark.parametrize("mode", [0o640, 0o600], ids=oct)
def test_out_keeps_mode_and_other_files(tmp_path, created, mode):
    target = tmp_path / "report.json"
    target.write_text("previous report\n")
    target.chmod(mode)
    (tmp_path / "report.json.tmp").write_text("the user's own file\n")
    assert main([*SAMPLE, "--out", str(target)]) == 0
    assert_report(target.read_text())
    # the temporary file is created readable by its owner alone, then takes PATH's bits
    assert created == [0o600]
    assert stat.S_IMODE(target.stat().st_mode) == mode
    assert (tmp_path / "report.json.tmp").read_text() == "the user's own file\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.json", "report.json.tmp"]


def refuse_umask(mask):
    raise AssertionError("the process's umask was set")


def test_new_out_takes_umask_mode(tmp_path, monkeypatch, created):
    set_umask = os.umask
    umask = set_umask(0o027)
    # the kernel narrows the new file's 0o666 by the umask: nothing reads or sets it
    monkeypatch.setattr(os, "umask", refuse_umask)
    try:
        assert main([*SAMPLE, "--out", str(tmp_path / "new.json")]) == 0
    finally:
        set_umask(umask)
    assert created == [0o666 & ~0o027]
    assert stat.S_IMODE((tmp_path / "new.json").stat().st_mode) == 0o640


def test_out_with_the_longest_name(tmp_path, capsys):
    # the temporary name has a fixed length, so any name PATH may have fits
    argv = ["case-study", "composed", "--output", "json"]
    assert main(argv) == 0
    target = tmp_path / ("a" * 245 + ".json")
    assert main([*argv, "--out", str(target)]) == 0
    assert target.read_text() == capsys.readouterr().out
    assert [p.name for p in tmp_path.iterdir()] == [target.name]


def test_out_to_devnull_writes_in_place():
    assert main([*SAMPLE, "--out", os.devnull]) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_out_through_symlink_and_hard_link(tmp_path):
    target = tmp_path / "target.json"
    target.write_text("previous report\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    assert main([*SAMPLE, "--out", str(link)]) == 0
    assert link.is_symlink()
    assert_report(target.read_text())

    other = tmp_path / "other.json"
    os.link(target, other)
    assert main([*SAMPLE, "--out", str(other), "--seed", "3"]) == 0
    assert os.path.samefile(target, other)
    assert json.loads(target.read_text())["config"]["seed"] == 3


def test_out_to_fifo(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    # a daemon: if main never opens the FIFO, the reader is left blocked
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    assert main([*SAMPLE, "--out", str(fifo)]) == 0
    reader.join(10)
    assert_report(received[0])
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
