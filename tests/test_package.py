import importlib
import inspect
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import pipeuq
from test_cli import child_env


def test_every_export_is_the_object_its_submodule_defines():
    exported = [name for names in pipeuq._SUBMODULES.values() for name in names]
    assert sorted(pipeuq.__all__) == sorted(exported) and len(set(exported)) == len(exported)
    listed = dir(pipeuq)
    for module, names in pipeuq._SUBMODULES.items():
        submodule = importlib.import_module(f"pipeuq.{module}")
        assert module in listed
        for name in names:
            value = getattr(pipeuq, name)
            assert value is getattr(submodule, name) and name in listed, name
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == submodule.__name__, name


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from pipeuq import *", namespace)
    assert {name: namespace[name] for name in pipeuq.__all__} == {
        name: getattr(pipeuq, name) for name in pipeuq.__all__
    }


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pipeuq.no_such_name
    assert not hasattr(pipeuq, "no_such_name")
    with pytest.raises(ImportError):
        exec("from pipeuq import no_such_name", {})


def test_names_and_submodules_load_on_first_use():
    # in a fresh interpreter, where nothing has loaded the submodules yet
    check = """
import sys
import pipeuq
assert "pipeuq.simulator" not in sys.modules
assert pipeuq.simulator is sys.modules["pipeuq.simulator"]
assert "pipeuq.casestudies" not in sys.modules
from pipeuq import wilson_interval
assert wilson_interval is sys.modules["pipeuq.casestudies"].wilson_interval
assert "wilson_interval" in vars(pipeuq)  # cached: no second lookup
"""
    subprocess.run([sys.executable, "-c", check], env=child_env(), check=True)


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    example = re.search(r"^## Library\n\n```python\n(.*?)^```$", readme, re.M | re.S)
    assert example, "README.md has no python block under ## Library"
    child = subprocess.run([sys.executable, "-c", example[1]], env=child_env(), capture_output=True, text=True)
    assert child.returncode == 0, child.stderr


def test_package_and_project_versions_agree():
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == pipeuq.__version__


def _records():
    """One instance of every public record."""
    from pipeuq.cli import ReportEnvelope

    interval = pipeuq.Interval(0.1, 0.2)
    profile, domain, fixer = pipeuq.ClassifierProfile(0.8, 0.9, 0.5), pipeuq.DomainSpec(100, 0.5), pipeuq.FixerSpec(0.5)
    box = pipeuq.PBoxParams(0.1, 0.9, 0.5)
    return [
        profile, domain, fixer, pipeuq.PipelineOutcome(*[0.5] * 9), box, interval,
        pipeuq.EvidenceSample("p1", "recall", 0.5), pipeuq.SummaryStats(2, 1, 0.1, 0.9, 0.5),
        pipeuq.TrialOutcome(1, 2, 1, 0.5, 0.5, None, 0.8),
        pipeuq.SimulationReport({}, {}, domain, profile, fixer, box, 10, 42),
        pipeuq.ToolRecord("A", 1, 2), pipeuq.ProportionCI(0.5, 0.4, 0.6, 0.95),
        pipeuq.ComposedPipelineReport(879, 0.86, 0.44, 756, 333, 423, interval, interval, ("note",)),
        ReportEnvelope({}, {}, ("a",), list, str),
    ]


RECORDS = _records()


def test_every_public_record_is_checked():
    exported = {name for name in pipeuq.__all__ if inspect.isclass(getattr(pipeuq, name))}
    records = {name for name in exported if issubclass(getattr(pipeuq, name), tuple)}
    assert records == {type(r).__name__ for r in RECORDS} - {"ReportEnvelope"}


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_records_are_immutable_values(record):
    fields = record._asdict()
    copy = type(record)(**fields)
    assert copy == record and copy is not record
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)


def test_replace_checks_a_validated_record():
    assert pipeuq.PBoxParams(0.1, 0.9, 0.5)._replace(minimum=-0.0) == (0.0, 0.9, 0.5)
    with pytest.raises(pipeuq.InvalidParameterError, match="lo <= hi"):
        pipeuq.Interval(0.1, 0.2)._replace(lo=0.5)
