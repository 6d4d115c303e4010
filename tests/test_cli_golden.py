"""Golden CLI corpus: every subcommand in every format, hashed byte for byte.

A fixed list of invocations runs through ``cli.run`` in one process, so the
shared parser is reused as it is in real use.  Each invocation's exit code,
stdout and stderr are hashed together and compared with the digest stored
for it in ``data/cli_golden.json``, so a failure names the invocation whose
output moved.  The corpus runs at a terminal width of 1000 columns: argparse
wraps help and usage text to the terminal width, its line breaks differ
between Python minor versions, and no line it writes for this CLI comes near
1000 columns, so nothing wraps and one set of digests holds on every
interpreter.  argparse's own wording of the choice list in an invalid-command
error changed within 3.13, so ``test_cli.py`` checks that error instead.
After an intended output change, rewrite the digests:

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
from pathlib import Path
from unittest import mock

from eschbaz import EschParams, certified_shift, cli
from eschbaz.arith import to_decimal

GOLDEN = Path(__file__).with_name("data") / "cli_golden.json"
# wider than any help or usage line, so argparse wraps nothing
COLUMNS = "1000"
FORMATS = ("text", "json", "csv")
RUNNING = ("--a=2,0,0", "--b=15,-2,-11")
HUGE = 10**70
# a free space with 12-digit entries: P has 104 digits
MID = ("--a=-84582978028,-140484178480,-306611382605", "--b=473485365637,-58368626567,-946795278183")
# the square of the largest prime below 10**6, the difference a1 - b2 of a free space
SQUARE = 999983**2

# each entry runs once per format
_PER_FORMAT = [
    ("verify-esch", *RUNNING),
    ("verify-esch", "--a=8,26,-10", "--b=19,5,0"),
    ("verify-baz", "--q=5,1,1,3,21"),
    ("verify-baz", "--q=-9,17,55,-93,-82"),
    ("embed", *RUNNING, "--c=2"),
    ("embed", *RUNNING, "--c=0"),
    ("window", *RUNNING),
    ("window", "--a=3,1,1", "--b=5,0,0"),
    ("window", "--a=39,0,0", "--b=55,-3,-13"),
    ("certified-shifts", *RUNNING, "--mu-max=4"),
    ("distinct", *RUNNING, "--n=3"),
    ("submanifolds", "--q=3,-1,-1,5,23"),
    ("submanifolds", "--q=1,1,1,1,1"),
    ("dual", *RUNNING, "--c=-1"),
    ("counterexamples",),
    ("families", "--k-max=0"),
    ("families", "--k-max=100"),
    ("cohom1", "--p-max=5"),
    ("scan", "--max-abs=8", "--limit=5"),
    ("scan", "--max-abs=56", "--limit=1"),
    ("certified-shifts", *MID, "--mu-max=2"),
    ("distinct", *MID, "--n=3"),
    ("certified-shifts", f"--a={SQUARE - 3},0,0", f"--b={SQUARE + 13},-3,-13", "--mu-max=2"),
    # exit 2: invalid input
    ("verify-esch", "--a=1,0,0", "--b=1,1,0"),
    ("verify-baz", "--q=1,2,3"),
    ("verify-baz", "--q=a,b,c,d,e"),
    ("dual", *RUNNING, "--c=0"),
    ("distinct", "--a=1,0,0", "--b=3,1,-3", "--n=2"),  # not free
    ("distinct", "--a=0,2,2", "--b=0,1,3", "--n=2"),  # free, a1 - b1 vanishes
    ("certified-shifts", *RUNNING, "--mu-max=0"),  # below 1
    ("certified-shifts", *RUNNING, "--mu-max=1001"),  # over MU_MAX_LIMIT
    ("distinct", *RUNNING, "--n=1001"),  # over N_LIMIT
    ("families", "--k-max=10001"),  # over K_MAX_LIMIT
    ("cohom1", "--p-max=10001"),  # over P_MAX_LIMIT
    ("scan", "--max-abs=201", "--limit=1"),  # over MAX_ABS_LIMIT
    ("window", "--a=1,0,0", "--b=100001,-1,-99999"),  # 50,000 shifts, over WINDOW_LIMIT
    ("window", "--a=1,0,0", f"--b={HUGE + 1},-1,{1 - HUGE}"),  # 5 * 10**69 shifts
    # exit 3: a 71-digit difference is past the factorizer's digit bound
    ("certified-shifts", f"--a={HUGE},0,0", f"--b={HUGE + 16},-3,-13", "--mu-max=1"),
]

# help and usage errors: no --format, except the JSON usage errors at the end
SUBCOMMANDS = ("verify-esch", "verify-baz", "embed", "window", "certified-shifts", "distinct",
               "submanifolds", "dual", "counterexamples", "families", "cohom1", "scan")
_ONCE = [
    ("--help",),
    *((name, "--help") for name in SUBCOMMANDS),
    (),
    ("families", "--k-max"),
    ("embed", *RUNNING, "--c=x"),
    ("embed", *RUNNING, "--c=x", "--format", "json"),
    ("certified-shifts", *RUNNING, "--format", "json"),  # --mu-max is required
]


def corpus() -> list[tuple[str, list[str]]]:
    """(label, argv) pairs; the label is the argv itself, except for the huge shift."""
    calls = [(argv, fmt) for argv in _PER_FORMAT for fmt in FORMATS]
    items = [(" ".join((*argv, "--format", fmt)), [*argv, "--format", fmt]) for argv, fmt in calls]
    items += [(" ".join(argv) or "<no arguments>", list(argv)) for argv in _ONCE]
    # 4424 digits, past the interpreter's 4300-digit int/str limit
    shift = to_decimal(certified_shift(EschParams((2, 0, 0), (15, -2, -11)), 640, 1))
    for fmt in FORMATS:
        items.append((f"embed {' '.join(RUNNING)} --c=<certified shift mu=640> --format {fmt}",
                      ["embed", *RUNNING, f"--c={shift}", "--format", fmt]))
    return items


def digests() -> dict[str, str]:
    """sha256 of (exit code, stdout, stderr) for every corpus invocation, in one process."""
    result = {}
    with mock.patch.dict("os.environ", COLUMNS=COLUMNS):
        for label, argv in corpus():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(argv)
            blob = json.dumps([code, out.getvalue(), err.getvalue()])
            result[label] = hashlib.sha256(blob.encode()).hexdigest()
    return result


def test_corpus_covers_every_subcommand_in_every_format():
    (subparsers,) = [a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert SUBCOMMANDS == tuple(subparsers.choices)
    # corpus() runs each _PER_FORMAT entry once per format
    assert {argv[0] for argv in _PER_FORMAT} == set(SUBCOMMANDS)


def test_corpus_matches_the_stored_digests():
    observed, stored = digests(), json.loads(GOLDEN.read_text())
    assert sorted(observed) == sorted(stored)
    moved = [label for label in stored if observed[label] != stored[label]]
    assert moved == []


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digests(), indent=1) + "\n")
