"""Run one docfootprint CLI command with the layer tracer installed.

Usage: python3 cli_child.py TOTALS_JSON COMMAND [ARGS...]

Behaves like `python -m docfootprint.cli COMMAND [ARGS...]` (same
output, same exit code) and writes the tracer's totals to TOTALS_JSON.
"""

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402

import docfootprint  # noqa: E402
import docfootprint.cli  # noqa: E402
from layers import Tracer  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer(docfootprint)
    tracer.install()
    try:
        return docfootprint.cli.main(argv)
    finally:
        tracer.flush()
        with open(out, "w", encoding="utf-8") as f:
            json.dump(tracer.totals(), f)


if __name__ == "__main__":
    sys.exit(main())
