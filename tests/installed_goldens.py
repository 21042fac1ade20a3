"""Check the installed `docfootprint` console script against the goldens.

Every case of test_golden.py runs as a fresh `docfootprint` process in a
new temporary directory holding the same inputs as in-process, and its
stdout, stderr, exit code and written files are compared with the
golden copies, as is the absence of a reports directory where a case
writes no file. Every `--help` text runs with COLUMNS=80 and must exit 0
with nothing on stderr. One more run checks that a document with no
item rows logs its one warning line.

Run it from anywhere after installing the package:

    python tests/installed_goldens.py

It names every file that differs from its golden copy and then exits 1;
it exits 0 when all match.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

from test_golden import CASES, GOLDEN_DIR, HELP_CASES, copy_inputs, golden, outputs

NO_ITEMS_WARNING = b"WARNING no invoice line items matched; returning empty result\n"


def run(argv, workdir: Path, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(["docfootprint", *argv], cwd=workdir, env=env, capture_output=True)


def main() -> int:
    differing = []
    for case, argv in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp)
            copy_inputs(workdir)
            proc = run(argv, workdir)
            produced = outputs(workdir, proc.stdout, proc.stderr, proc.returncode)
        expected = golden(case)
        differing += [f"{case}/{name}" for name in sorted(produced.keys() | expected.keys())
                      if produced.get(name) != expected.get(name)]

    env = {**os.environ, "COLUMNS": "80"}
    for command in HELP_CASES:
        argv = [] if command == "docfootprint" else [command]
        with tempfile.TemporaryDirectory() as tmp:
            proc = run([*argv, "--help"], Path(tmp), env)
        expected = (GOLDEN_DIR / "help" / f"{command}.txt").read_bytes()
        if (proc.returncode, proc.stderr, proc.stdout) != (0, b"", expected):
            differing.append(f"help/{command}.txt")

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        (workdir / "notes.txt").write_text("Just prose, no ITEM rows.\n", encoding="utf-8")
        proc = run(["usecase-run", "--document", "notes.txt", "--out", "reports"], workdir)
        if proc.returncode != 0:
            differing.append("usecase-run-no-items/exit_code.txt")
        if proc.stderr != NO_ITEMS_WARNING:
            differing.append("usecase-run-no-items/stderr.txt")

    for name in differing:
        print(f"differs from its golden copy: {name}")
    if differing:
        return 1
    print(f"{len(CASES)} cases, {len(HELP_CASES)} help texts and the no-item-rows warning match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
