"""Seeded adversarial fuzz of the command line: every call ends in a documented way.

Each call runs one of the eight per-space subcommands, in one of the three
formats, through ``cli.run`` in process.  Entries come from five bands:
|x| <= 20, |x| <= 10**6, 15-80 digits, past the int/str limit (641, 4301 and
5001 digits), and edge values (0, +-1, 2**53, +-2**63).  Half the spaces are
built free and positively curved, all entries from one band, and half of
those are passed in normal form (a 5-tuple is then the candidate host of one
at a shift); the other half draw each entry from its own band, and one entry
in twenty is malformed text.  ``--mu-max`` and ``--n``
are small, or just outside their bounds, or past the int/str limit: their
output grows with the product of the flag and the size of the space, which
is what their caps bound.

A call is flagged when anything escapes ``run``, the exit code is not one of
the documented five, stderr holds a traceback, JSON output does not parse, or
the call runs past ``CALL_SECONDS``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import signal

import pytest

from eschbaz import EschParams, candidate_q, is_free, pc_normal_form, pc_shift_window
from eschbaz import cli
from eschbaz.arith import to_decimal

ESCH_COMMANDS = ("verify-esch", "embed", "window", "certified-shifts", "distinct", "dual")
BAZ_COMMANDS = ("verify-baz", "submanifolds")
FORMATS = ("text", "json", "csv")
EXIT_CODES = {cli.EXIT_OK, cli.EXIT_VERIFICATION_FAILED, cli.EXIT_INVALID_INPUT,
              cli.EXIT_EFFORT_EXCEEDED, cli.EXIT_INTERNAL_ERROR}
CALLS_PER_SEED = 200
CALL_SECONDS = 10
EDGE_VALUES = (0, 1, -1, 2**53, 2**63, -(2**63))
MALFORMED = ("1_0", "١", "１", "", "+-1", "0x10", "1.5", "1e3")


class CallTimedOut(BaseException):
    """Raised by the alarm; a BaseException, so no handler in the package catches it."""


def _digits(rng: random.Random, digits: int) -> int:
    return rng.choice((1, -1)) * rng.randrange(10 ** (digits - 1), 10**digits)


def _draw(rng: random.Random, band: int) -> int:
    if band == 0:
        return rng.randint(-20, 20)
    if band == 1:
        return rng.randint(-(10**6), 10**6)
    if band == 2:
        return _digits(rng, rng.randint(15, 80))
    if band == 3:
        return _digits(rng, rng.choice((641, 4301, 5001)))
    return rng.choice(EDGE_VALUES)


def _free_pc_space(rng: random.Random, band: int) -> EschParams | None:
    """A free space whose b1 lies above the a-interval and b2, b3 below it; None if none was found."""
    for _ in range(200):
        lo, mid, hi = sorted(_draw(rng, band) for _ in range(3))
        d2 = abs(_draw(rng, band)) + 1
        d1 = d2 + mid - lo + abs(_draw(rng, band)) + 1
        a = [lo, mid, hi]
        rng.shuffle(a)
        e = EschParams(tuple(a), (hi + d1, lo - d2, mid - d1 + d2))
        if is_free(e):
            return pc_normal_form(e) if rng.random() < 0.5 else e
    return None


def _text(rng: random.Random, value: int) -> str:
    """value in decimal, or one time in twenty a malformed integer."""
    return rng.choice(MALFORMED) if rng.random() < 0.05 else to_decimal(value)


def _entries(rng: random.Random, count: int) -> list[str]:
    return [_text(rng, _draw(rng, rng.randrange(5))) for _ in range(count)]


def _esch_texts(rng: random.Random) -> tuple[list[str], list[str], EschParams | None]:
    built = _free_pc_space(rng, rng.randrange(5)) if rng.random() < 0.5 else None
    if built is None:
        return _entries(rng, 3), _entries(rng, 3), None
    return [to_decimal(x) for x in built.a], [to_decimal(x) for x in built.b], built


def _shift(rng: random.Random, built: EschParams | None) -> int:
    """A shift in the curvature window of a built space half the time, else from a band."""
    if built is not None and rng.random() < 0.5:
        window = pc_shift_window(pc_normal_form(built))
        return window.start + rng.randrange(min(window.stop - window.start, 50))
    return _draw(rng, rng.randrange(5))


def _resource(rng: random.Random, cap: int) -> str:
    """A value of --mu-max or --n: small four times in five, else outside its bounds."""
    if rng.random() < 0.8:
        return str(rng.randint(1, 3))
    return to_decimal(rng.choice((0, -1, cap + 1, 10**5000)))


def _argv(rng: random.Random) -> list[str]:
    command = rng.choice(ESCH_COMMANDS + BAZ_COMMANDS)
    if command in BAZ_COMMANDS:
        built = _free_pc_space(rng, rng.randrange(5)) if rng.random() < 0.5 else None
        if built is not None:
            args = ["--q=" + ",".join(to_decimal(x) for x in candidate_q(built, _shift(rng, built)).q)]
        else:
            args = ["--q=" + ",".join(_entries(rng, 5))]
    else:
        a, b, built = _esch_texts(rng)
        args = ["--a=" + ",".join(a), "--b=" + ",".join(b)]
        if command in ("embed", "dual"):
            args.append("--c=" + _text(rng, _shift(rng, built)))
        elif command == "certified-shifts":
            args.append("--mu-max=" + _resource(rng, cli.MU_MAX_LIMIT))
        elif command == "distinct":
            args.append("--n=" + _resource(rng, cli.N_LIMIT))
    return [command, *args, "--format", rng.choice(FORMATS)]


def _alarm(signum, frame):
    raise CallTimedOut


def _problem(argv: list[str]) -> str | None:
    """What is wrong with one in-process call, or None."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(CALL_SECONDS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    except CallTimedOut:
        return f"ran past {CALL_SECONDS} s"
    except (Exception, SystemExit) as exc:  # anything escaping run is the defect under test
        return f"{type(exc).__name__} escaped run: {exc}"[:300]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    if code not in EXIT_CODES:
        return f"undocumented exit code {code!r}"
    if "Traceback" in err.getvalue():
        return "traceback on stderr"
    if argv[-1] == "json":
        try:
            json.loads(out.getvalue())
        except ValueError as exc:
            return f"JSON does not parse: {exc}"
    return None


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_call_ends_in_a_documented_way(seed):
    rng = random.Random(f"cli-fuzz:{seed}")
    flagged = []
    for _ in range(CALLS_PER_SEED):
        argv = _argv(rng)
        problem = _problem(argv)
        if problem is not None:
            flagged.append(f"{' '.join(argv)[:200]}: {problem}")
    assert flagged == []
