"""Pin the command-line surface: every subcommand's flags, positionals, types
and choices.

A flag's kind is ``int``, ``float``, ``list`` (a comma/space separated list of
floats), ``str``, ``const`` (stores True when given) or the tuple of its
choices. A positional is named by its dest; ``"str?"`` marks an optional one.
"""

import argparse

import pytest

from pipeuq.cli import build_parser, main

OUTPUTS = ("table", "csv", "json")
OUTLIER_POLICIES = ("none", "iqr")

COMMON = {"--config": "str", "--seed": "int", "--output": OUTPUTS, "--out": "str"}
PBOX = {
    "--pbox-min": "float",
    "--pbox-max": "float",
    "--pbox-mean": "float",
    "--evidence": "str",
    "--outlier-policy": OUTLIER_POLICIES,
    "--outlier-k": "float",
}

SURFACE = {
    "analytic": {
        **COMMON,
        "--n-items": "int",
        "--prevalence": "list",
        "--fix-rate": "list",
        "--recall": "float",
        "--precision": "float",
    },
    "simulate": {
        **COMMON,
        "--n-items": "int",
        "--prevalence": "list",
        "--fix-rate": "list",
        "--specificity": "float",
        **PBOX,
        "--break-rate": "float",
        "--trials": "int",
        "--mode": ("extremes", "means", "both"),
        "--trace": "const",
    },
    "evidence": {
        **COMMON,
        "evidence": "str?",
        "--outlier-policy": OUTLIER_POLICIES,
        "--outlier-k": "float",
    },
    "case-study": {
        **COMMON,
        "which": ("rule-based", "composed"),
        "--tools": "str",
        "--confidence": "float",
        "--method": ("agresti-coull", "wilson"),
        "--case-n-items": "int",
        "--case-recall": "float",
        "--case-accuracy": "float",
        **PBOX,
    },
    "pbox-sample": {
        **COMMON,
        **PBOX,
        "--trials": "int",
    },
}


def _subparsers():
    parser = build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _kind(action) -> object:
    if isinstance(action, argparse._StoreConstAction):
        assert action.const is True
        return "const"
    if action.choices is not None:
        assert action.type is None
        return tuple(action.choices)
    if action.type in (int, float):
        return action.type.__name__
    if action.type is None:
        return "str?" if action.nargs == "?" else "str"
    assert action.type("0.1, 0.5 1") == [0.1, 0.5, 1.0]
    return "list"


def test_commands():
    assert set(_subparsers()) == set(SURFACE)


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_flags_and_positionals(command):
    surface = {}
    for action in _subparsers()[command]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if action.option_strings:
            [flag] = action.option_strings
            assert action.dest == flag[2:].replace("-", "_")
            surface[flag] = _kind(action)
        else:
            surface[action.dest] = _kind(action)
    assert surface == SURFACE[command]


def test_trace_stores_true():
    parser = build_parser()
    assert parser.parse_args(["simulate", "--trace"]).trace is True
    assert parser.parse_args(["simulate"]).trace is None


@pytest.mark.parametrize("command", ["analytic", "simulate"])
def test_list_flags_parse(command):
    args = build_parser().parse_args([command, "--prevalence", "0.1, 0.5", "--fix-rate", "1"])
    assert args.prevalence == [0.1, 0.5]
    assert args.fix_rate == [1.0]


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--mode", "median"],
        ["analytic", "--output", "yaml"],
        ["evidence", "--outlier-policy", "mad"],
        ["case-study", "rule-based", "--method", "clopper-pearson"],
    ],
)
def test_unknown_choice_exits_2(argv, capsys):
    assert main(argv) == 2
    assert "invalid choice" in capsys.readouterr().err
