import importlib
import inspect
import subprocess
import sys

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
