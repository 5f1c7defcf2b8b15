"""The report differ's pairing and ulp count, on small synthetic documents."""

import json
import math

from report_diff import compare, compare_csv, compare_json, describe, ulps


def test_ulps_counts_float_steps():
    assert ulps(1.0, 1.0) == 0
    assert ulps(0.0, -0.0) == 0
    assert ulps(1.0, math.nextafter(1.0, 2.0)) == 1
    assert ulps(1.0, 1.0 + 3 * 2**-52) == 3
    # across zero: each side's steps from 0 add up
    assert ulps(-5e-324, 5e-324) == 2
    assert ulps(math.nextafter(0.0, -1.0), 0.0) == 1
    assert ulps(-1.0, 1.0) == 2 * ulps(0.0, 1.0)


def test_json_values_pair_by_path():
    old = {"a": [1, 0.5, {"b": "x"}], "gone": 1, "same": [0.1] * 3, "n": None, "version": "0.1.0"}
    new = {"a": [1, 0.5 + 2**-53 * 2, {"b": "y"}, 4], "new": 2, "same": [0.1] * 3, "n": 0.0, "version": "0.2.0"}
    diff = compare_json(old, new)
    assert diff.added == [".new", ".a[3]"]
    assert diff.removed == [".gone"]
    assert diff.moved == 1
    assert diff.largest == (2, (2 * 2**-53) / (0.5 + 2**-52), ".a[1]")
    assert diff.changed == [(".a[2].b", "x", "y"), (".n", None, 0.0), (".version", "0.1.0", "0.2.0")]


def test_json_picks_the_largest_move():
    diff = compare_json([1.0, 2.0, 3.0], [1.0 + 2**-52, 2.0, 3.0 + 4 * 2**-51])
    assert diff.moved == 2
    assert diff.largest[0] == 4 and diff.largest[2] == "[2]"


def test_an_int_that_becomes_a_float_of_the_same_value_is_a_change_of_form_only():
    old, new = b'{"k": 1}', b'{"k": 1.0}'
    assert describe(old, new, "json") == ["bytes differ", "  no value moved: only the formatting differs"]


def test_csv_values_pair_by_row_and_column():
    old = "metric,lo,hi\nf,0.25,1\ng,x,2\nh,1,1\n"
    new = "hi,metric,lo,extra\n1,f,0.25000000000000006,9\n3,g,y,9\n"  # columns reordered
    diff = compare_csv(old, new)
    assert diff.added == ["extra"]
    assert diff.removed == ["row 3"]
    assert diff.moved == 2
    assert diff.largest == (ulps(2.0, 3.0), 1 / 3, "row 2 hi")  # row 1 lo moved by one ulp
    assert diff.changed == [("row 2 lo", "x", "y")]


def test_describe_reads_identical_bytes_as_identical_and_a_table_as_bytes():
    doc = json.dumps({"a": 1}).encode()
    assert describe(doc, doc, "json") == ["identical"]
    assert describe(b"a\n", b"b\n", "table") == ["bytes differ (a table is compared as bytes only)"]
    lines = describe(b'{"a": [1.0, 2.0]}', b'{"a": [1.0, 2.0000000000000004]}', "json")
    assert lines == ["bytes differ", "  numbers moved: 1; largest 1 ulps, relative 2.22e-16, at .a[1]"]


def test_a_run_is_identical_only_in_exit_code_stdout_and_stderr():
    usage = b"usage: pipeuq [-h] [--version] {analytic,simulate} ...\npipeuq: error: bad\n"
    moved = usage.replace(b"{analytic,simulate}", b"{analytic}")
    assert compare((2, b"", usage), (2, b"", usage), None) == ["identical"]
    assert compare((2, b"", usage), (2, b"", moved), None) == [
        "exit code, stdout or stderr differ",
        "  stderr: line 1: 'usage: pipeuq [-h] [--version] {analytic,simulate} ...' -> "
        "'usage: pipeuq [-h] [--version] {analytic} ...'",
    ]
    assert compare((0, b"pipeuq 1\n", b""), (2, b"", b"error: x\n"), None) == [
        "exit code, stdout or stderr differ", "  exit code: 0 -> 2", "  stdout: line 1: 'pipeuq 1' -> None",
        "  stderr: line 1: None -> 'error: x'",
    ]
    assert compare((0, b"a\n", b""), (0, b"a", b""), None)[1] == "  stdout: only the line breaks differ"
    # a report of two runs that exit 0 is described by its format
    assert compare((0, b"a\n", b""), (0, b"b\n", b""), "table") == describe(b"a\n", b"b\n", "table")
