"""Pin the command-line surface: every subcommand's flags, positionals, types
and choices.

An option's kind is ``int``, ``float``, ``list`` (a comma/space separated list
of floats), ``str``, ``const`` (stores True when given) or the tuple of its
choices. A positional is named by its dest, and each is optional.

argparse only finds the options: each stores its text, and ``build_config``
converts and checks it as it does a config key's. So an option's kind is read
from what ``build_config`` makes of its text.
"""

import argparse
import re

import pytest

from pipeuq.cli import build_parser, main
from pipeuq.config import build_config
from pipeuq.errors import ConfigError

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
        "evidence": "str",
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


def _config(command, *argv):
    """The RunConfig ``build_config`` makes of ``command``'s options ``argv``, its positional set unless
    ``argv`` sets it."""
    positional = {"evidence": ["e.csv"], "case-study": ["composed"]}.get(command, [])
    if argv and not argv[0].startswith("--"):
        positional = []
    return build_config(build_parser().parse_args([command, *positional, *argv]), command)


# a kind -> a text of it and the value it becomes, and a text it refuses; each value is
# valid for every flag of its kind (0.74 lies between pbox_min and pbox_max)
TEXTS = {"int": ("7", 7, "7.0"), "float": ("0.74", 0.74, "x"), "list": ("0.1, 0.5", [0.1, 0.5], "0.1, x"),
         "str": (" a b.csv ", " a b.csv ", None)}


def _check_kind(command, option, kind, tmp_path):
    """Assert that ``build_config`` converts ``option``'s text, a flag's or the positional's, as ``kind`` says."""
    name = option.removeprefix("--").replace("-", "_")
    flag = [option] if option.startswith("--") else []  # the text alone sets the positional
    if kind == "const":
        assert getattr(_config(command, option), name) is True
    elif option == "--config":  # a path read as given, spaces and all
        path = tmp_path / " c d.ini "
        path.write_text("[common]\nseed = 3\n")
        assert _config(command, option, str(path)).seed == 3
    elif isinstance(kind, tuple):
        for choice in kind:
            assert getattr(_config(command, *flag, choice), name) == choice
        with pytest.raises(ConfigError, match=re.escape(f"{name}: must be one of {kind!r}, got 'bogus'")):
            _config(command, *flag, "bogus")
    else:
        text, value, refused = TEXTS[kind]
        converted = getattr(_config(command, *flag, text), name)
        assert (converted, type(converted)) == (value, type(value))
        if refused is not None:
            with pytest.raises(ConfigError, match=f"^{name}: expected a "):
                _config(command, *flag, refused)


def test_commands():
    assert set(_subparsers()) == set(SURFACE)


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_flags_and_positionals(command, tmp_path):
    surface = {}
    for action in _subparsers()[command]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        [option] = action.option_strings or [action.dest]
        assert action.dest == option.removeprefix("--").replace("-", "_")
        assert action.type is None and action.choices is None  # the text as given, for build_config
        assert action.option_strings or action.nargs == "?"  # a positional is optional
        assert option in SURFACE[command]
        surface[option] = SURFACE[command][option]
        _check_kind(command, option, surface[option], tmp_path)
    assert surface == SURFACE[command]


def test_trace_stores_true():
    parser = build_parser()
    assert parser.parse_args(["simulate", "--trace"]).trace is True
    assert parser.parse_args(["simulate"]).trace is None


@pytest.mark.parametrize("command", ["analytic", "simulate"])
def test_list_flags_parse(command):
    cfg = _config(command, "--prevalence", "0.1, 0.5", "--fix-rate", "1")
    assert cfg.prevalence == [0.1, 0.5]
    assert cfg.fix_rate == [1.0]


@pytest.mark.parametrize(
    "argv, name, value",
    [
        (["simulate", "--mode", "median"], "mode", "median"),
        (["analytic", "--output", "yaml"], "output", "yaml"),
        (["evidence", "--outlier-policy", "mad"], "outlier_policy", "mad"),
        (["case-study", "rule-based", "--method", "clopper-pearson"], "method", "clopper-pearson"),
    ],
)
def test_unknown_choice_exits_2(argv, name, value, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    # one line, which the evidence command's missing CSV may join
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert re.search(rf"\b{name}: must be one of \([^)]*\), got {value!r}(;|\n)", err)
