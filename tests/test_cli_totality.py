"""CLI totality over input bytes, checked with Hypothesis.

Whatever bytes stand in the config, scenario, document, ledger or
tokens-count file, the CLI exits 0, 2 or 3 without a traceback. Exit 2
prints exactly one line, an `error:` line, on stderr. A second run on
the same bytes prints and writes the same bytes. Inputs are either
random bytes or a bundled file with random bytes spliced in or one JSON
value replaced, so both the readers and the code behind them are
reached. The run is derandomized, so every run checks the same
examples.
"""

import io
import json
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from docfootprint.cli import DATA_DIR, FIXTURES_DIR, main

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
    | st.sampled_from([10 ** 400, 1e308, -1.0, 0, "bundled"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                  max_size=3),
    max_leaves=6)


def _value_paths(obj, path=()):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _value_paths(value, (*path, key))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _value_paths(value, (*path, i))
    yield path


def _with_value(base: bytes, path, value) -> bytes:
    obj = json.loads(base)
    if not path:
        obj = value
    else:
        target = obj
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return json.dumps(obj).encode("utf-8")


def _inputs(bundled: Path):
    """Random bytes, or the bundled file with random bytes spliced in or,
    for a JSON file, one value replaced."""
    base = bundled.read_bytes()

    def any_bytes(size):
        return st.binary(max_size=size) | st.text(max_size=size).map(str.encode)

    spliced = st.tuples(st.integers(0, len(base)), st.integers(0, 40), any_bytes(20)).map(
        lambda t: base[:t[0]] + t[2] + base[t[0] + t[1]:])
    choices = [any_bytes(200), spliced]
    if bundled.suffix == ".json":
        paths = list(_value_paths(json.loads(base)))
        choices.append(st.tuples(st.sampled_from(paths), _JSON_VALUES).map(
            lambda t: _with_value(base, *t)))
    return st.one_of(choices)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _tree(root: Path) -> dict:
    if not root.exists():
        return {}
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


# reader: (bundled file the input replaces, argv with {input} and {out})
_READERS = {
    "config": (DATA_DIR / "config.json",
               ["scenario-compare", "--config", "{input}", "--out", "{out}"]),
    "scenario": (DATA_DIR / "scenarios" / "hitl.json",
                 ["scenario-compare", "--config", "{config}", "--out", "{out}"]),
    "document": (FIXTURES_DIR / "proforma_invoice.txt",
                 ["usecase-run", "--document", "{input}", "--out", "{out}"]),
    "ledger": (FIXTURES_DIR / "ledger.json",
               ["usecase-run", "--ledger", "{input}", "--out", "{out}"]),
    "tokens-count": (FIXTURES_DIR / "extraction_prompt.txt", ["tokens-count", "{input}"]),
}


def _check_total(reader: str, raw: bytes) -> None:
    template = _READERS[reader][1]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        shutil.copytree(DATA_DIR / "scenarios", tmp / "scenarios")
        shutil.copy(DATA_DIR / "config.json", tmp / "config.json")
        target = tmp / "scenarios" / "hitl.json" if reader == "scenario" else tmp / "input"
        target.write_bytes(raw)
        out = tmp / "out"
        argv = [arg.format(input=tmp / "input", out=out, config=tmp / "config.json")
                for arg in template]
        runs = []
        for _ in range(2):
            shutil.rmtree(out, ignore_errors=True)
            code, stdout, stderr = _run(argv)
            runs.append((code, stdout, stderr, _tree(out)))
        code, _, stderr, _ = runs[0]
        assert code in (0, 2, 3)
        if code == 2:
            assert stderr.startswith("error: ") and stderr.count("\n") == 1
        else:
            assert "error:" not in stderr
        assert runs[0] == runs[1]


@pytest.mark.parametrize("reader", sorted(_READERS))
def test_cli_exits_0_2_or_3_on_any_input_bytes(reader):
    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(raw=_inputs(_READERS[reader][0]))
    def check(raw):
        _check_total(reader, raw)

    check()


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


# A count as (command-line text, its value; None for text that is no integer).
_COUNTS = st.one_of(
    st.integers().map(lambda v: (str(v), v)),
    st.integers(10 ** 15 - 2, 10 ** 15 + 2).map(lambda v: (str(v), v)),
    # More than int()'s 4,300 digits; only the side of the range matters.
    st.tuples(st.sampled_from(["", "+", "-"]), st.integers(4290, 4400),
              st.sampled_from("123456789")).map(
        lambda t: (t[0] + t[2] * t[1], -1 if t[0] == "-" else 10 ** 16)),
    st.text(max_size=12).filter(lambda t: not _is_int(t)).map(lambda t: (t, None)),
    st.sampled_from(["-", "-1.5", "-1e5", "-x", "--", "--conf", "-h", " 7 ", "1_000"]).map(
        lambda t: (t, int(t) if _is_int(t) else None)),
)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(base=_COUNTS, thinking=_COUNTS)
def test_thinking_delta_exits_0_or_2_on_any_count_text(base, thinking):
    """Any integer, of any length or sign, or any other text as either count,
    whatever its first character: exit 0 with four result lines, or exit 2
    with one error line naming the first bad count and nothing on stdout.
    -h in either place prints the help instead."""
    out, err = io.StringIO(), io.StringIO()
    argv = ["thinking-delta", base[0], thinking[0]]
    if "-h" in argv:
        with pytest.raises(SystemExit) as exc, redirect_stdout(out), redirect_stderr(err):
            main(argv)
        assert exc.value.code == 0 and err.getvalue() == ""
        assert out.getvalue().startswith("usage: docfootprint thinking-delta ")
        return
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    bad = [(name, value) for name, (_, value) in (("base_tokens", base),
                                                  ("thinking_tokens", thinking))
           if value is None or not 0 <= value <= 10 ** 15]
    if not bad:
        assert (code, err.getvalue(), out.getvalue().count("\n")) == (0, "", 4)
        return
    name, value = bad[0]
    reason = ("must be an integer" if value is None else
              "must be >= 0" if value < 0 else "must be <= 10**15")
    assert (code, out.getvalue(), err.getvalue()) == (2, "", f"error: {name} {reason}\n")
