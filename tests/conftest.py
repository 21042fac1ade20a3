import json
import sys
import types
from pathlib import Path

import pytest

from docfootprint import TokenLedger, load_config
from docfootprint.cli import DATA_DIR, FIXTURES_DIR


@pytest.fixture(scope="session")
def data_dir():
    return DATA_DIR


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES_DIR


@pytest.fixture(scope="session")
def config():
    return load_config(DATA_DIR / "config.json")


@pytest.fixture(scope="session")
def flash(config):
    return config.profiles["flash-prompt-2025"]


@pytest.fixture(scope="session")
def usecase_profile(config):
    return config.profiles["usecase-2025"]


@pytest.fixture(scope="session")
def invoice_text(fixtures_dir):
    return (fixtures_dir / "proforma_invoice.txt").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def prompt_text(fixtures_dir):
    return (fixtures_dir / "extraction_prompt.txt").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def measured_ledger(fixtures_dir):
    obj = json.loads((fixtures_dir / "ledger.json").read_text(encoding="utf-8"))
    return TokenLedger.from_json_obj(obj)


@pytest.fixture
def perfbench_gen(monkeypatch):
    """perfbench/gen.py, loaded without writing bytecode next to it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    module = types.ModuleType("perfbench_gen")
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module
