"""Regenerate the golden record corpus of tests/test_golden.py.

Writes the records of every listed qhist invocation (run in-process) and
the stdout of every demo into this directory, replacing what is there:

    PYTHONPATH=src python tests/golden/regen.py

The corpus is test data: a change that moves an output regenerates it and
lists every changed line (git diff tests/golden) in CHANGES.md.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import test_golden  # noqa: E402


def main():
    for old in test_golden.GOLDEN.glob("*.txt"):
        old.unlink()
    for argv in test_golden.INVOCATIONS:
        code, text = test_golden.run_invocation(argv)
        if code != 0:
            raise SystemExit(f"qhist {' '.join(argv)} exited {code}")
        test_golden.invocation_path(argv).write_text(text)
    for stem in test_golden.DEMOS:
        test_golden.demo_path(stem).write_text(test_golden.run_demo(stem))


if __name__ == "__main__":
    main()
