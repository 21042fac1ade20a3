"""Count the code lines of each module of src/docfootprint.

A code line is a line that holds a token other than a comment, NL,
NEWLINE, INDENT or DEDENT, and that is not part of a docstring: a
string, or run of strings, that forms a whole statement. A token that
spans lines, such as a triple-quoted string, holds every line it spans.

Usage: python tests/code_lines.py

It prints each module's count, sorted by name, and the total.
"""

from __future__ import annotations

import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "docfootprint"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of code lines in the Python source at path."""
    lines = set()
    statement = []
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _LAYOUT:
                statement.append(tok)
            elif tok.type == tokenize.NEWLINE and statement:
                if any(t.type != tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
    return len(lines)


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.stem:<12} {count:>5}")
    print(f"{'total':<12} {total:>5}")


if __name__ == "__main__":
    main()
