from importlib import import_module

import pytest

import twoclosure
from helpers import loaded_modules


def test_every_export_is_its_defining_modules_object():
    assert len(twoclosure.__all__) == len(set(twoclosure.__all__))
    for name in twoclosure.__all__:
        home = import_module(f"twoclosure.{twoclosure._SOURCES[name]}")
        assert getattr(twoclosure, name) is getattr(home, name), name
    assert twoclosure.__version__ == "0.1.0"


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from twoclosure import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(twoclosure.__all__)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        twoclosure.no_such_name
    assert not hasattr(twoclosure, "_no_such_private")


def test_importing_the_package_loads_no_submodule():
    modules = loaded_modules("import twoclosure")
    assert "twoclosure" in modules
    assert [m for m in modules if m.startswith("twoclosure.")] == []


def test_verify_does_not_import_the_cli():
    # The CLI looks up `verify.suite_<name>`; the suites need nothing of it.
    modules = loaded_modules("import twoclosure.verify")
    assert "twoclosure.verify" in modules
    assert "twoclosure.cli" not in modules
