"""Property test over the command line.

Each example picks a subcommand and some of its flags, each flag with a value
from a small pool of valid and invalid values, among them well-formed and
malformed input files. Whatever the argv, ``main`` must exit 0 (success),
2 (bad input) or 3 (I/O error), never 4 (internal error), and must print no
traceback. A run that succeeds must give the same stdout when repeated.

``main`` reads a plain command line with ``cli._scan`` and any other with
argparse, so a second property holds the scan to argparse over the same pools
and the forms a command line can also take: a value joined by "=", an
abbreviated or repeated flag, help, ``--``, an empty word, a negative number,
a word that reads as an option and a stray positional.

``--trials`` and ``--n-items`` are always small or invalid, so every example
runs in milliseconds.
"""

import contextlib
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pipeuq.cli import _scan, build_parser, main

# Input files; a pool value "{name}" becomes the file's path. "{missing}" is a
# path that does not exist. "{dir}" in a file is the directory of them all.
FILES = {
    "good.ini": b"[common]\nseed = 5\n\n[simulate]\nmode = means\ntrials = 2\n",
    # every key but the command's own is skipped, so each command runs on it
    "shared.ini": (
        b"[common]\nbreak_rate = 0.1\nspecificity = 0.9\ntrials = 2\nmode = means\n"
        b"tools = {dir}/tools.csv\ncase_recall = 0.8\n"
    ),
    "no_bracket.ini": b"[common\nseed = 3\n",
    "duplicate_key.ini": b"[common]\nseed = 1\nseed = 2\n",
    "duplicate_section.ini": b"[common]\nseed = 1\n[common]\nseed = 2\n",
    "interpolation.ini": b"[common]\nout = a%b\n",
    "latin1.ini": b"[common]\nseed = 1 \xff\n",
    "unknown_key.ini": b"[common]\ncolour = red\n",
    "bad_values.ini": b"[common]\nseed = x\ntrace = maybe\nprevalence = a, b\n",
    "evidence.csv": (
        b"source_id,metric,value\np1,recall,0.62\np1,recall,0.65\np2,recall,0.70\n"
        b"p3,recall,0.10\np1,precision,0.71\n"
    ),
    "one_recall.csv": b"source_id,metric,value\np1,recall,0.4\n",
    "precision_only.csv": b"source_id,metric,value\np1,precision,0.4\n",
    "header_only.csv": b"source_id,metric,value\n",
    "bad_header.csv": b"id,metric,value\np1,recall,0.4\n",
    "bad_value.csv": b"source_id,metric,value\np1,recall,1.5\np2,recall,x\n",
    "latin1_evidence.csv": b"source_id,metric,value\np1,recall,0.5\xe9\n",
    # number forms the grammar refuses: a digit group, a nonzero literal that rounds to 0.0
    "lenient_evidence.csv": b"source_id,metric,value\np1,recall,0.0_5\np2,recall,1e-400\n",
    "tools.csv": b"name,correct,generated\nA,7,20\nB,0,5\n",
    "bad_tools.csv": b"name,correct,generated\nA,9,2\nB,x,5\n",
    "zero_tools.csv": b"name,correct,generated\nA,0,0\n",
    "latin1_tools.csv": b"name,correct,generated\nA\xff,1,2\n",
    "lenient_tools.csv": b"name,correct,generated\nA,1_0,2_0\n",
}

# each pool of numbers holds forms the grammar refuses: a digit group, a nonzero literal that rounds
# to 0.0, non-ASCII digits
UNIT = ["0", "0.5", "1", "nan", "-0.1", "1.5", "inf", "0.9_9", "1e-400", "\u0660.\u0665"]
GRID = ["0.5", "0,0.5,1", "", "nan", "1.5", "x"]
# each pool of paths holds "", which names no file and is refused, not read as no path
INI = ["{" + name + "}" for name in FILES if name.endswith(".ini")] + ["{missing}", ""]
EVIDENCE = ["{" + name + "}" for name in FILES if "tools" not in name and name.endswith(".csv")]
EVIDENCE += ["{missing}", ""]
TOOLS = ["{tools.csv}", "{bad_tools.csv}", "{zero_tools.csv}", "{latin1_tools.csv}", "{lenient_tools.csv}", "{missing}",
         ""]

POOLS = {
    "--config": INI,
    "--seed": ["-1", "0", "7", str(2**70)],
    "--output": ["table", "csv", "json", "xml"],
    "--n-items": ["1", "50", "0", str(10**20), "x", "1_0"],
    "--prevalence": GRID,
    "--fix-rate": GRID,
    "--specificity": UNIT,
    "--recall": UNIT,
    # a subnormal or tiny precision would overflow the fixer load to inf
    "--precision": [*UNIT, "5e-324", "1e-300"],
    "--pbox-min": UNIT,
    "--pbox-max": UNIT,
    "--pbox-mean": UNIT,
    "--evidence": EVIDENCE,
    "--outlier-policy": ["none", "iqr", "median"],
    "--outlier-k": ["0", "1.5", "-1", "nan", "inf"],
    "--break-rate": UNIT,
    "--trials": ["1", "3", "0", "-1", str(2**63), "x", "1_0"],
    "--mode": ["extremes", "means", "both", "median"],
    "--tools": TOOLS,
    "--confidence": ["0.5", "0.95", "0.9999999999999999", "0", "1", "nan"],
    "--method": ["agresti-coull", "wilson", "wald"],
    "--case-n-items": ["1", "879", "0", str(10**400), "1_0"],
    "--case-recall": UNIT,
    "--case-accuracy": UNIT,
}

COMMON = ["--config", "--seed", "--output"]
GRID_FLAGS = ["--n-items", "--prevalence", "--fix-rate"]
PBOX_FLAGS = ["--pbox-min", "--pbox-max", "--pbox-mean", "--evidence", "--outlier-policy", "--outlier-k"]

# subcommand -> (a pool per positional, flags always given, optional flags);
# None in a positional's pool leaves it out
COMMANDS = {
    "analytic": ([], [], [*COMMON, *GRID_FLAGS, "--recall", "--precision"]),
    "simulate": (
        [], ["--trials"],
        [*COMMON, *GRID_FLAGS, "--specificity", *PBOX_FLAGS, "--break-rate", "--mode", "--trace"],
    ),
    "evidence": ([[*EVIDENCE, None]], [], [*COMMON, "--outlier-policy", "--outlier-k"]),
    "case-study": (
        [["rule-based", "composed", "both", None]], [],
        [*COMMON, *PBOX_FLAGS, "--tools", "--confidence", "--method", "--case-n-items",
         "--case-recall", "--case-accuracy"],
    ),
    "pbox-sample": ([], ["--trials"], [*COMMON, *PBOX_FLAGS]),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    positionals, required, optional = COMMANDS[command]
    argv = [command]
    for pool in positionals:
        value = draw(st.sampled_from(pool))
        if value is not None:
            argv.append(value)
    flags = required + draw(st.lists(st.sampled_from(optional), unique=True, max_size=6))
    for flag in flags:
        argv.append(flag)
        if flag != "--trace":
            argv.append(draw(st.sampled_from(POOLS[flag])))
    return argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    directory = tmp_path_factory.mktemp("argv-inputs")
    for name, content in FILES.items():
        directory.joinpath(name).write_bytes(content.replace(b"{dir}", bytes(directory)))
    names = [*FILES, "missing"]
    return {"{" + name + "}": str(directory / name) for name in names}


@settings(max_examples=150, deadline=None)
@given(template=argvs())
def test_any_argv_exits_typed_and_reruns_identically(paths, template):
    argv = [paths.get(token, token) for token in template]
    code, out, err = run(argv)
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err, argv
    if code == 0:
        assert run(argv) == (0, out, err), argv


# argvs that exit 2 with one error line whatever else they hold
REFUSED = [
    ["simulate", "--trials", "1", "--evidence", ""],
    ["case-study", "rule-based", "--tools", ""],
    ["analytic", "--config", ""],
    ["analytic", "--out", ""],
]


@pytest.mark.parametrize("argv", REFUSED, ids=" ".join)
def test_refused_argv_exits_2_with_one_line(argv):
    code, out, err = run(argv)
    assert (code, out) == (2, ""), (argv, err)
    assert err.startswith("error: ") and err.count("\n") == 1, err


# words that make a command line not plain: help, the end of the options, an empty word, a negative number, a
# word that reads as an option, a stray positional
ODD = ["-h", "--", "", "-1", "-0.5,1", "extra"]


@st.composite
def command_lines(draw):
    """A command and up to six parts, each a flag with a value, a positional or an odd word. A flag can repeat,
    be abbreviated (to one flag or to several) and take a value of its pool or an odd one, joined by "=" or not."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    positionals, required, optional = COMMANDS[command]
    argv = [command]
    odd = st.integers(0, 9).map(lambda n: n == 0)  # one part, value or flag name in ten is odd
    for _ in range(draw(st.integers(0, 6))):
        if draw(odd):
            argv.append(draw(st.sampled_from(ODD)))
        elif draw(st.integers(0, 4)) == 0:
            argv.append(draw(st.sampled_from([v for pool in positionals for v in pool if v is not None] or ["extra"])))
        else:
            flag = draw(st.sampled_from([*required, *optional]))
            value = draw(st.sampled_from(ODD if draw(odd) else POOLS.get(flag, [None])))  # --trace has no pool
            if draw(odd):
                flag = flag[:draw(st.integers(3, len(flag) - 1))]
            if value is None:
                argv.append(flag)
            elif draw(st.booleans()):
                argv.append(f"{flag}={value}")
            else:
                argv += [flag, value]
    return argv


def parse(argv):
    """argparse's namespace for ``argv`` as ``main`` builds its parser, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return build_parser(argv[0] if argv else None).parse_args(argv)
        except SystemExit:
            return None


@settings(max_examples=600, deadline=None)
@given(argv=command_lines())
@example(argv=[])
@example(argv=["-h"])
@example(argv=["simulate", "--trials=3", "--n-items=20", "--prevalence=0.5", "--fix-rate=0.7", "--trace"])
@example(argv=["simulate", "--tri", "3", "--n-it", "20"])
@example(argv=["simulate", "--tr", "3"])  # ambiguous: --trace or --trials
@example(argv=["simulate", "--trace=x"])
@example(argv=["analytic", "--seed", "1", "--seed", "2", "--out="])
@example(argv=["analytic", "--seed", "-1"])
@example(argv=["analytic", "--prevalence", "-0.5,1"])
@example(argv=["analytic", "--config=--"])  # argparse reads no value
@example(argv=["analytic", "--", "--seed", "1"])
@example(argv=["analytic", "--recall"])
@example(argv=["evidence", "", "--seed", "3"])
@example(argv=["evidence", "a.csv", "b.csv"])
@example(argv=["case-study", "--seed", "3", "composed"])
def test_scan_reads_a_command_line_as_argparse(argv):
    args, parsed = _scan(argv), parse(argv)
    if parsed is None:
        assert args is None, argv
    elif args is not None:
        assert vars(args) == vars(parsed), argv
