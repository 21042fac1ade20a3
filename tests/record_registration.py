"""Records register as dataclasses on first use, checked in a fresh interpreter.

tests/test_core.py runs this file with the package on PYTHONPATH. It needs
no pytest, so it also runs as a plain script on any supported Python:

    PYTHONPATH=src python tests/record_registration.py

It prints "ok" when every check holds and stops at the first that does not.
"""

import importlib
import sys
from pathlib import Path

import docfootprint
from docfootprint import Carbon, Energy, Interval, Scenario, TokenLedger, Water, load_config
from docfootprint.cli import DEFAULT_CONFIG
from docfootprint.core import _Record


def check_protocol_without_dataclasses(ledger, scenario):
    """repr, ==, hash and the JSON form of records import nothing."""
    assert repr(ledger) == ("TokenLedger(document=10, prompt=20, output=30, thinking=40, "
                            "source='measured')"), repr(ledger)
    twin = TokenLedger(10, 20, 30, 40)
    assert ledger == twin and hash(ledger) == hash(twin)
    assert ledger != TokenLedger(10, 20, 30, 41)
    assert ledger.to_json_obj() == {"document": 10, "prompt": 20, "output": 30,
                                    "thinking": 40, "source": "measured"}
    assert repr(scenario).startswith("Scenario(name='manual', daily_volume=5000, ")
    rebuilt = Scenario.from_json_obj(scenario.to_json_obj())
    assert rebuilt == scenario and hash(rebuilt) == hash(scenario)
    loaded = sorted({"dataclasses", "inspect"} & set(sys.modules))
    assert loaded == [], loaded


def check_registration(ledger):
    import dataclasses

    # The first dataclass operation: replace on an instance whose class
    # no lookup has registered yet.
    assert "__dataclass_fields__" not in vars(TokenLedger)
    duplicate = dataclasses.replace(ledger)
    assert duplicate == ledger and duplicate is not ledger and type(duplicate) is TokenLedger

    # __dataclass_params__ read before __dataclass_fields__ on another class.
    assert "__dataclass_fields__" not in vars(Interval)
    params = Interval.__dataclass_params__
    assert (params.init, params.repr, params.eq, params.frozen) == (False,) * 4

    # A class pattern reads __match_args__ from a class not yet registered.
    assert "__dataclass_fields__" not in vars(Water)
    match Water(Interval(1.0, 2.0)):
        case Water(liters):
            assert liters == Interval(1.0, 2.0)
        case _:
            raise AssertionError("Water(liters) did not match")

    assert not dataclasses.is_dataclass(_Record)
    assert not dataclasses.is_dataclass(_Record())
    assert dataclasses.is_dataclass(Energy(1.0))

    interval = Interval(1.0, 2.0)
    for action, message in ((lambda: setattr(interval, "lo", 0.0), "cannot assign to field 'lo'"),
                            (lambda: delattr(interval, "hi"), "cannot delete field 'hi'")):
        try:
            action()
        except dataclasses.FrozenInstanceError as exc:
            assert str(exc) == message, exc
        else:
            raise AssertionError(message)

    # copy.replace (Python 3.13) finds __replace__ on a class not yet registered.
    assert "__dataclass_fields__" not in vars(Carbon)
    if sys.version_info >= (3, 13):
        import copy
        assert copy.replace(Carbon(1.0), grams=2.0) == Carbon(2.0)
    else:
        assert not hasattr(Carbon, "__replace__")

    # Every record: fields in declaration order and the decorator's parameters.
    package = Path(docfootprint.__file__).parent
    for path in sorted(package.glob("*.py")):
        module = importlib.import_module(f"docfootprint.{path.stem}")
        for cls in vars(module).values():
            if (isinstance(cls, type) and issubclass(cls, _Record) and cls is not _Record
                    and cls.__module__ == module.__name__):
                assert [f.name for f in dataclasses.fields(cls)] == list(cls._names), cls
                params = cls.__dataclass_params__
                assert (params.init, params.repr, params.eq, params.frozen) == (False,) * 4, cls


def main():
    ledger = TokenLedger(document=10, prompt=20, output=30, thinking=40)
    scenario = load_config(DEFAULT_CONFIG).scenarios[0]
    check_protocol_without_dataclasses(ledger, scenario)
    check_registration(ledger)
    print("ok")


if __name__ == "__main__":
    main()
