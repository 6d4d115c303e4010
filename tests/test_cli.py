import argparse
import csv
import errno
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import decimal_by_digits, to_jsonable_oracle
from eschbaz import (
    EschParams,
    FactorizationIncomplete,
    InternalError,
    VerificationFailure,
    candidate_q,
    certified_shift,
    homotopy_distinct_embeddings,
    nonsingular_shift,
    scan_box,
    verify_cohomogeneity_one,
    verify_infinite_families,
    verify_known_counterexamples,
)
from eschbaz import cli
from eschbaz.cli import run
from eschbaz.embedding import _moduli, shift_prime_product
from eschbaz.eschenburg import _FAMILIES

E_RUNNING = EschParams((2, 0, 0), (15, -2, -11))


@pytest.fixture(scope="module")
def schema():
    text = resources.files("eschbaz").joinpath("report_schema.json").read_text()
    return json.loads(text)


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, schema, *argv):
    code, out, _ = invoke(capsys, *argv, "--format", "json")
    report = json.loads(out)
    jsonschema.validate(report, schema)
    return code, report


# ---------------------------------------------------------------------------
# exit codes


def test_exit_zero_even_for_negative_verdicts(capsys):
    code, out, _ = invoke(capsys, "verify-baz", "--q", "5,1,1,3,21")
    assert code == 0
    assert "free:               no" in out
    assert "gcd(q1+q2, q4+q5) = 6" in out


def test_exit_two_on_sum_mismatch(capsys):
    code, _, err = invoke(capsys, "verify-esch", "--a", "1,0,0", "--b", "1,1,0")
    assert code == 2
    assert "sum(a) = 1" in err and "sum(b) = 2" in err


def test_exit_two_on_malformed_input(capsys):
    code, _, err = invoke(capsys, "verify-baz", "--q", "1,2,3")
    assert code == 2
    assert "5 comma-separated integers" in err
    code, _, _ = invoke(capsys, "verify-baz", "--q", "a,b,c,d,e")
    assert code == 2


def test_exit_two_on_scan_workers_below_one(capsys):
    argv = ("scan", "--max-abs", "8", "--limit", "5", "--workers", "0")
    assert invoke(capsys, *argv) == (2, "", "error (invalid-input): --workers must be >= 1\n")


def test_exit_two_on_unknown_arguments(capsys):
    assert invoke(capsys, "no-such-command")[0] == 2
    assert invoke(capsys)[0] == 2


def test_exit_two_on_removed_effort_options(capsys):
    # factorization effort is fixed, so no option sets it
    shifts = ("certified-shifts", "--a", "2,0,0", "--b", "15,-2,-11", "--mu-max", "2")
    for option in (("--seed", "5"), ("--factor-bound", "1000")):
        code, out, err = invoke(capsys, *shifts, *option)
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {' '.join(option)}" in err


def test_exit_zero_on_help(capsys):
    assert invoke(capsys, "--help")[0] == 0


def test_exit_three_on_factorization_limit(capsys):
    # free parameters whose differences include a 71-digit integer; the
    # factorizer must refuse at its digit bound rather than mis-factor
    m = 10**70
    code, _, err = invoke(
        capsys, "certified-shifts",
        "--a", f"{m},0,0", "--b", f"{m + 16},-3,-13", "--mu-max", "1",
    )
    assert code == 3
    assert "digit" in err


@pytest.mark.parametrize(("p", "q"), [
    (1000000000000037, 1000000000000091),  # 16 digits each
    (10000000000000000051, 10000000000000000087),  # 20 digits each
], ids=["32-digits", "40-digits"])
def test_exit_three_when_rho_runs_out_of_steps(capsys, p, q):
    # free parameters with a1 - b2 = x + 3 = p * q: rho would need about
    # sqrt(p) steps to split it, far past its step budget, so the factorizer
    # refuses in bounded time
    x = p * q - 3
    started = time.perf_counter()
    code, _, err = invoke(
        capsys, "certified-shifts", "--a", f"{x},0,0", "--b", f"{x + 16},-3,-13", "--mu-max", "1",
    )
    assert time.perf_counter() - started < 2.0
    assert code == 3
    assert err == f"error (effort-exceeded): could not split composite {p * q} within 1000000 rho steps\n"


def test_exit_three_when_a_difference_is_a_strong_pseudoprime_to_every_base(capsys):
    # a1 - b3 is psi_12 = 399165290221 * 798330580441, which passes Miller-Rabin
    # for the bases 2..37; rho cannot split it within budget, so P, which
    # includes both primes, is refused rather than built without one of them
    code, out, err = invoke(
        capsys, "certified-shifts", "--a=399165290234,399165290220,0",
        "--b=318665857834430316457752,-71,-318665857833631985877227", "--mu-max", "1",
    )
    assert (code, out) == (3, "")
    assert err == ("error (effort-exceeded): could not split composite "
                   "318665857834031151167461 within 1000000 rho steps\n")


def test_exit_four_on_internal_error(capsys, schema, monkeypatch):
    # a normal form that breaks its own chain is a bug, not bad input
    monkeypatch.setattr("eschbaz.eschenburg._in_chain", lambda *entries: False)
    argv = ("window", "--a", "2,0,0", "--b", "15,-2,-11")
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (4, "")
    assert err.startswith("error (internal-error): a=(2, 0, 0) b=(15, -2, -11), the normal form of ")
    assert invoke(capsys, *argv, "--format", "csv") == (4, "", err)
    code, report = invoke_json(capsys, schema, *argv)
    assert code == 4
    assert report["error"] == {"kind": "internal-error", "reason": err[len("error (internal-error): "):-1]}

    def broken(*args, **kwargs):
        raise InternalError("broken invariant")

    monkeypatch.setattr("eschbaz.cli.embedding.make_certificate", broken)
    code, report = invoke_json(capsys, schema, "embed", "--a", "2,0,0", "--b", "15,-2,-11", "--c", "2")
    assert code == 4
    assert report == {"command": "embed", "version": cli.__version__,
                      "error": {"kind": "internal-error", "reason": "broken invariant"}}


def test_exit_four_on_factorization_mismatch(capsys, monkeypatch):
    from eschbaz import arith, embedding

    # a1 - b2 = x + 3 = 1000003 * 1000033 has no prime factor up to 37, so
    # rho splits it; a rho that returns the prime non-divisor 1000183 (the
    # cofactor 1000036000099 // 1000183 = 999853 is prime) breaks the
    # reconstruction
    m = 1000003 * 1000033
    brent_rho = arith._brent_rho
    monkeypatch.setattr(arith, "_brent_rho", lambda n: 1000183 if n == m else brent_rho(n))
    # bypass factorize's memo, so it runs its reconstruction check; each
    # command builds its own space, which no earlier record can match
    monkeypatch.setattr(embedding, "factorize", arith.factorize.__wrapped__)
    x = m - 3
    argv = ("certified-shifts", "--a", f"{x},0,0", "--b", f"{x + 16},-3,-13", "--mu-max", "1")
    for _ in range(2):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (4, "")
        assert err == "error (internal-error): the factorization of 1000036000099 multiplies back to 1000035973099\n"
    # the failure was not stored: the same space, walked on, gets its P once rho is mended
    e = EschParams((x, 0, 0), (x + 16, -3, -13))
    with pytest.raises(arith.InternalError, match="multiplies back"):
        shift_prime_product(e)
    monkeypatch.setattr(arith, "_brent_rho", brent_rho)
    p = shift_prime_product(e)
    assert p > 1 and embedding._walked == (e, _moduli(*e.a, *e.b), p)


# each capped command: its cap, and the rest of a valid invocation
_CAPPED = {
    "certified-shifts": (1000, ("--a", "2,0,0", "--b", "15,-2,-11")),
    "distinct": (1000, ("--a", "2,0,0", "--b", "15,-2,-11")),
    "families": (10_000, ()),
    "cohom1": (10_000, ()),
    "scan": (200, ("--limit", "1")),
}


@pytest.mark.parametrize(("command", "flag", "limit"), [
    ("certified-shifts", "--mu-max", "MU_MAX_LIMIT"),
    ("distinct", "--n", "N_LIMIT"),
    ("families", "--k-max", "K_MAX_LIMIT"),
    ("cohom1", "--p-max", "P_MAX_LIMIT"),
    ("scan", "--max-abs", "MAX_ABS_LIMIT"),
])
def test_resource_flags_are_capped(capsys, schema, monkeypatch, command, flag, limit):
    cap, rest = _CAPPED[command]
    assert getattr(cli, limit) == cap
    monkeypatch.setattr(cli, limit, 2)
    argv = (command, *rest)
    assert invoke(capsys, *argv, flag, "2")[0] == 0
    assert invoke(capsys, *argv, flag, "3") == (2, "", f"error (invalid-input): {flag} must be <= 2\n")
    code, report = invoke_json(capsys, schema, *argv, flag, "3")
    assert code == 2
    assert report["error"] == {"kind": "invalid-input", "reason": f"{flag} must be <= 2"}


def test_resource_flag_past_int_to_str_limit_meets_its_cap(capsys, schema):
    # 5000 digits, past the interpreter's 4300-digit int/str limit: the value still reaches the cap
    argv = ("families", "--k-max", "9" * 5000)
    assert invoke(capsys, *argv) == (2, "", "error (invalid-input): --k-max must be <= 10000\n")
    code, report = invoke_json(capsys, schema, *argv)
    assert code == 2
    assert report["error"] == {"kind": "invalid-input", "reason": "--k-max must be <= 10000"}


def test_window_is_capped(capsys, schema, monkeypatch):
    assert cli.WINDOW_LIMIT == 10_000
    argv = ("window", "--a=1,0,0", "--b=100001,-1,-99999")
    reason = ("the curvature window of a=(1, 0, 0) b=(100001, -1, -99999) has 50000 shifts; "
              "window is capped at 10000 shifts")
    assert invoke(capsys, *argv) == (2, "", f"error (invalid-input): {reason}\n")
    code, report = invoke_json(capsys, schema, *argv)
    assert code == 2
    assert report["error"] == {"kind": "invalid-input", "reason": reason}
    # the running example's window 0..5 has 6 shifts
    monkeypatch.setattr(cli, "WINDOW_LIMIT", 6)
    assert invoke(capsys, "window", "--a=2,0,0", "--b=15,-2,-11")[0] == 0
    monkeypatch.setattr(cli, "WINDOW_LIMIT", 5)
    assert invoke(capsys, "window", "--a=2,0,0", "--b=15,-2,-11")[0] == 2


def test_window_past_int_to_str_limit_is_refused_at_once(capsys, schema):
    # about 10**5000 / 2 shifts: len() of that range would overflow, and a scan would never end
    big = 10**5000
    argv = ("window", "--a=1,0,0", f"--b={decimal_by_digits(big + 1)},-1,{decimal_by_digits(1 - big)}")
    start = time.perf_counter()
    code, _, err = invoke(capsys, *argv)
    code_json, report = invoke_json(capsys, schema, *argv)
    assert time.perf_counter() - start < 1
    assert (code, code_json) == (2, 2)
    shifts = decimal_by_digits(big // 2)
    assert err.endswith(f"has {shifts} shifts; window is capped at 10000 shifts\n")
    assert report["error"]["reason"].endswith(f"has {shifts} shifts; window is capped at 10000 shifts")


@pytest.mark.parametrize("mu_max", ["0", "-5"])
def test_exit_two_on_mu_max_below_one(capsys, schema, mu_max):
    # a space that is not free: the flag is refused before the space is checked
    argv = ("certified-shifts", "--a", "1,0,0", "--b", "3,1,-3", "--mu-max", mu_max)
    assert invoke(capsys, *argv) == (2, "", "error (invalid-input): --mu-max must be >= 1\n")
    code, report = invoke_json(capsys, schema, *argv)
    assert code == 2
    assert report["error"] == {"kind": "invalid-input", "reason": "--mu-max must be >= 1"}


@pytest.mark.parametrize("argv", [
    ("certified-shifts", "--a", "x,y,z", "--b", "1,2", "--mu-max", "1001"),
    ("certified-shifts", "--a", "x,y,z", "--b", "1,2", "--mu-max", "0"),
    ("distinct", "--a", "x,y,z", "--b", "1,2", "--n", "1001"),
])
def test_bound_error_comes_before_a_malformed_space(capsys, argv):
    flag, value = argv[-2:]
    reason = f"{flag} must be >= 1" if value == "0" else f"{flag} must be <= 1000"
    assert invoke(capsys, *argv) == (2, "", f"error (invalid-input): {reason}\n")


@pytest.mark.parametrize("body", ["1_0", "١", "１", "1_" + "0" * 700, "١" + "0" * 700],
                         ids=["underscore", "arabic-indic", "fullwidth", "long-underscore", "long-arabic-indic"])
def test_exit_two_on_integers_outside_the_decimal_syntax(capsys, body):
    # int() accepts these below 600 characters; the CLI holds every length to sign and ASCII digits
    code, out, err = invoke(capsys, "embed", "--a", "2,0,0", "--b", "15,-2,-11", f"--c={body}")
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument --c: invalid integer value: {body!r}\n")
    code, out, err = invoke(capsys, "verify-esch", f"--a={body},0,0", "--b=1,1,-2")
    assert (code, out) == (2, "")
    assert err == f"error (invalid-input): --a must be integers, got '{body},0,0'\n"


_INTEGER_FLAGS = [
    (("embed", "--a", "2,0,0", "--b", "15,-2,-11"), "--c"),
    (("dual", "--a", "2,0,0", "--b", "15,-2,-11"), "--c"),
    (("certified-shifts", "--a", "2,0,0", "--b", "15,-2,-11"), "--mu-max"),
    (("distinct", "--a", "2,0,0", "--b", "15,-2,-11"), "--n"),
    (("families",), "--k-max"),
    (("cohom1",), "--p-max"),
    (("scan", "--limit", "1"), "--max-abs"),
    (("scan", "--max-abs", "8"), "--limit"),
    (("scan", "--max-abs", "8", "--limit", "1"), "--workers"),
]


@pytest.mark.parametrize(("argv", "flag"), _INTEGER_FLAGS,
                         ids=[f"{argv[0]} {flag}" for argv, flag in _INTEGER_FLAGS])
def test_every_integer_flag_reads_a_non_number_as_an_invalid_integer(capsys, argv, flag):
    code, out, err = invoke(capsys, *argv, flag, "x")
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument {flag}: invalid integer value: 'x'\n")


# each flag whose lower bound the library also checks, and the reason the CLI gives first
_RANGE_CHECKED = [
    (("distinct", "--a", "2,0,0", "--b", "15,-2,-11"), "--n", "--n must be >= 1"),
    (("families",), "--k-max", "--k-max must be >= 0"),
    (("cohom1",), "--p-max", "--p-max must be >= 1"),
    (("scan", "--limit", "1"), "--max-abs", "--max-abs must be >= 1"),
    (("scan", "--max-abs", "8"), "--limit", "--limit must be >= 1"),
    (("scan", "--max-abs", "8", "--limit", "1"), "--workers", "--workers must be >= 1"),
]


@pytest.mark.parametrize(("argv", "flag", "reason"), _RANGE_CHECKED,
                         ids=[f"{argv[0]} {flag}" for argv, flag, _ in _RANGE_CHECKED])
def test_range_error_past_int_to_str_limit_gives_its_own_reason(capsys, schema, argv, flag, reason):
    # 5000 digits, past the interpreter's 4300-digit int/str limit: the value still
    # reaches the CLI's lower bound, whose error names the flag
    value = "-" + "9" * 5000
    assert invoke(capsys, *argv, f"{flag}={value}") == (2, "", f"error (invalid-input): {reason}\n")
    code, report = invoke_json(capsys, schema, *argv, f"{flag}={value}")
    assert code == 2
    assert report["error"] == {"kind": "invalid-input", "reason": reason}


# the library call each bounded flag feeds, with that flag's value as its one argument
_LIBRARY_CALLS = {
    "mu_max": lambda v: certified_shift(E_RUNNING, v, 1),
    "n": lambda v: homotopy_distinct_embeddings(E_RUNNING, v),
    "k_max": verify_infinite_families,
    "p_max": verify_cohomogeneity_one,
    "max_abs": lambda v: scan_box(v, 1),
    "limit": lambda v: scan_box(1, v),
    "workers": lambda v: scan_box(1, 1, workers=v),
}


@pytest.mark.parametrize("key", list(cli._bounds()))
def test_flag_least_values_are_the_library_least_values(key):
    # the CLI writes each least value a second time, to name the flag in its error
    least, _ = cli._bounds()[key]
    with pytest.raises(ValueError, match=f"must be >= {least}"):
        _LIBRARY_CALLS[key](least - 1)
    _LIBRARY_CALLS[key](least)


def test_exit_one_on_verification_failure(capsys, monkeypatch):
    import eschbaz.survey as survey_mod

    monkeypatch.setitem(
        # sabotage one stored window to force a structured failure
        # (tuples are immutable, so patch the constant wholesale)
        vars(survey_mod), "KNOWN_COUNTEREXAMPLES",
        survey_mod.KNOWN_COUNTEREXAMPLES[:8]
        + (((39, 0, 0), (55, -3, -13), range(0, 3)),),
    )
    monkeypatch.setattr("eschbaz.cli.survey", survey_mod)
    code, _, err = invoke(capsys, "counterexamples")
    assert code == 1
    assert "window mismatch" in err


def _console_env():
    """os.environ with this checkout's src/ put first on PYTHONPATH, for ``python -m eschbaz.cli``."""
    src = Path(__file__).resolve().parents[1] / "src"
    paths = [str(src), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


# the console with site-packages off sys.path: only the standard library and src/ import
CONSOLE = (sys.executable, "-S", "-m", "eschbaz.cli")


def test_console_entry_point(capsys):
    env = _console_env()
    argv = ["counterexamples", "--format", "csv"]
    proc = subprocess.run([*CONSOLE, *argv], env=env, capture_output=True)
    assert proc.returncode == 0
    assert run(argv) == 0
    assert proc.stdout == capsys.readouterr().out.encode()
    proc = subprocess.run([*CONSOLE, "verify-baz", "--q", "1,2,3"], env=env, capture_output=True)
    assert proc.returncode == 2


def test_console_exits_141_when_the_reader_closes_stdout():
    with subprocess.Popen([*CONSOLE, "families", "--k-max", "10000"],
                          env=_console_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline().startswith(b"A k=0 ")
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
    assert err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
def test_console_exits_74_when_stdout_cannot_be_written():
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([*CONSOLE, "families", "--k-max", "3"],
                              env=_console_env(), stdout=full, stderr=subprocess.PIPE, timeout=60)
    assert proc.returncode == cli.EXIT_OUTPUT_FAILED == 74
    assert proc.stderr.decode().splitlines() == ["error (output-failed): No space left on device"]


# boxes 8 and 12 hold no counterexample; box 60 holds one, so a scan row is
# rendered, serially and from a pooled shard
_ROW_60 = "a=(39, 0, 0) b=(55, -3, -13)  window 0 <= c <= 7  [xxxxxxxx]  |H4|=841  counterexample"
# (argv, exit code, second stdout line or None, stderr)
_CONSOLE_RUNS = [
    *((argv, 0, None, "") for argv in (
        "verify-esch --a 2,0,0 --b 15,-2,-11 --format json",
        "verify-baz --q 5,1,1,3,21",
        "window --a 39,0,0 --b 55,-3,-13 --format json",
        "certified-shifts --a 2,0,0 --b 15,-2,-11 --mu-max 2 --format csv",
        "embed --a 2,0,0 --b 15,-2,-11 --c 2 --format csv",
        "distinct --a 2,0,0 --b 15,-2,-11 --n 3",
        "submanifolds --q 3,-1,-1,5,23",
        "dual --a 2,0,0 --b 15,-2,-11 --c -1 --format json",
        "counterexamples --format csv",
        "families --k-max 3 --format json",
        "cohom1 --p-max 3 --format csv",
        "scan --max-abs 8 --limit 5 --format csv",
        "scan --max-abs 12 --limit 5 --workers 2 --format json",
    )),
    *((f"scan --max-abs 60 --limit 1 --workers {workers}", 0, _ROW_60, "") for workers in (1, 2)),
    # a value below a flag's least value exits 2 with one error line that names the flag
    ("families --k-max -1", 2, None, "error (invalid-input): --k-max must be >= 0\n"),
]


@pytest.mark.parametrize(("argv", "code", "row", "err"), _CONSOLE_RUNS, ids=[case[0] for case in _CONSOLE_RUNS])
def test_console_runs_on_the_standard_library_alone(argv, code, row, err):
    proc = subprocess.run([*CONSOLE, *argv.split()], env=_console_env(), capture_output=True, text=True,
                          timeout=120)
    assert (proc.returncode, proc.stderr) == (code, err)
    if row is not None:
        assert proc.stdout.splitlines()[1] == row


def _refused_pool(*args, **kwargs):
    """A ``ProcessPoolExecutor`` whose processes the operating system will not start."""
    raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))


def test_scan_exits_71_when_its_worker_pool_cannot_start(capsys, schema, monkeypatch):
    # an OSError raised before any output is the operating system's, not
    # stdout's: exit 71 and a report in the requested format, not exit 74
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _refused_pool)
    monkeypatch.setattr("eschbaz.survey._pool_size", lambda workers, n_tasks: workers)  # on one CPU too
    argv = ("scan", "--max-abs", "12", "--limit", "3", "--workers", "2")
    reason = os.strerror(errno.EAGAIN)
    assert invoke(capsys, *argv) == (cli.EXIT_OS_ERROR, "", f"error (os-error): {reason}\n")
    assert cli.EXIT_OS_ERROR == 71
    code, report = invoke_json(capsys, schema, *argv)
    assert code == 71
    assert report["error"] == {"kind": "os-error", "reason": reason}


def test_no_pool_modules_load_without_a_pool():
    # only a pooled scan_box may load concurrent.futures and multiprocessing:
    # every other process would pay their memory and import time for nothing.
    # Every module loaded is the standard library's or eschbaz's, and none is
    # fractions or decimal, which only the tests need.
    script = (
        "import sys, eschbaz, eschbaz.cli\n"
        "eschbaz.scan_box(12, 5, workers=1)\n"
        "assert eschbaz.cli.run(['verify-esch', '--a=2,0,0', '--b=15,-2,-11']) == 0\n"
        "top = {m.split('.')[0] for m in sys.modules} - {'__main__'}\n"
        "print(sorted(top & {'concurrent', 'multiprocessing'}))\n"
        "print(sorted(top - set(sys.stdlib_module_names) - {'eschbaz'}))\n"
        "print(sorted(top & {'fractions', 'decimal'}))\n"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", script], env=_console_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-3:] == ["[]", "[]", "[]"]


# ---------------------------------------------------------------------------
# JSON output and schema


def test_json_verify_baz_schema_and_values(capsys, schema):
    code, report = invoke_json(capsys, schema, "verify-baz", "--q", "5,1,1,3,21")
    assert code == 0
    (result,) = report["results"]
    assert result["free"] is False and result["pc"] is True
    assert {"pair1": [1, 2], "pair2": [4, 5], "gcd": 6} in result["offending_pairs"]


def test_json_window_matches_text_values(capsys, schema):
    code, report = invoke_json(capsys, schema, "window", "--a", "2,0,0", "--b", "15,-2,-11")
    assert code == 0
    (result,) = report["results"]
    assert result["window"] == {"lo": 0, "hi": 5}
    by_shift = {c["shift"]: c for c in result["certificates"]}
    assert by_shift[2]["h6"] == 1541 and by_shift[5]["h6"] == 2579

    _, text_out, _ = invoke(capsys, "window", "--a", "2,0,0", "--b", "15,-2,-11")
    assert "|H6|=1541" in text_out and "|H6|=2579" in text_out
    assert "0 <= c <= 5" in text_out


def test_json_big_integers_become_strings(capsys, schema):
    code, report = invoke_json(
        capsys, schema, "certified-shifts",
        "--a", "2,0,0", "--b", "15,-2,-11", "--mu-max", "4",
    )
    assert code == 0
    values = {r["mu"]: r["c"] for r in report["results"] if r["sign"] == 1}
    assert values[1] == 4089800  # small ones stay numbers
    assert isinstance(values[4], str)  # 8 * 4089800^4 overflows 53 bits
    assert int(values[4]) == 8 * 4089800**4
    assert all(r["nonsingular"] for r in report["results"])


def test_embed_shift_past_int_to_str_limit(capsys, schema):
    # 4424 digits, past the interpreter's 4300-digit int/str limit
    c = certified_shift(E_RUNNING, 640, 1)
    digits = decimal_by_digits(c)
    assert len(digits) == 4424
    argv = ("embed", "--a=2,0,0", "--b=15,-2,-11", f"--c={digits}")
    code, report = invoke_json(capsys, schema, *argv)
    assert code == 0
    (cert,) = report["results"]
    assert cert["shift"] == report["input"]["shift"] == digits
    assert cert["baz_free"] is True
    assert cert["baz"]["q"][0] == decimal_by_digits(2 * (2 + c) + 1)
    code, out, _ = invoke(capsys, *argv, "--format", "csv")
    assert code == 0
    (row,) = list(csv.DictReader(io.StringIO(out)))
    assert row["shift"] == digits and row["baz_free"] == "True"
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert f"shift c={digits}\n" in out and "non-singular: yes" in out


def test_certified_shifts_past_int_to_str_limit(capsys, schema):
    # 623 is the smallest --mu-max whose last shift, -2^622 P^623, has more
    # than 4300 digits (4307); at 622 every shift has at most 4300
    argv = ("certified-shifts", "--a", "2,0,0", "--b", "15,-2,-11", "--mu-max", "623")
    last = certified_shift(E_RUNNING, 623, -1)
    assert len(decimal_by_digits(last)) == 4308  # with the sign
    code, report = invoke_json(capsys, schema, *argv)
    assert code == 0
    assert len(report["results"]) == 2 * 623
    assert report["results"][-1] == {"mu": 623, "sign": -1, "c": decimal_by_digits(last),
                                     "nonsingular": True}
    code, out, _ = invoke(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out.splitlines()[-1] == f"623,-1,{decimal_by_digits(last)},True"
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert out.splitlines()[-1] == f"  mu=623 sign=-  c = {decimal_by_digits(last)}  non-singular: yes"


@pytest.mark.parametrize("argv", [("certified-shifts", "--mu-max", "4"), ("distinct", "--n", "3")])
def test_shift_product_is_computed_once_per_command(capsys, monkeypatch, prime_product_calls, argv):
    from eschbaz import embedding

    asked = []
    recorded = embedding.shift_prime_product
    monkeypatch.setattr(embedding, "shift_prime_product", lambda e: asked.append(e) or recorded(e))
    code, out, _ = invoke(capsys, *argv, "--a", "2,0,0", "--b", "15,-2,-11")
    assert code == 0 and out
    assert len(prime_product_calls) == 1 and prime_product_calls[0] == E_RUNNING
    assert len(asked) >= 3 and all(e is prime_product_calls[0] for e in asked)  # each command takes P at least 3 times


def test_parameters_past_int_to_str_limit(capsys, schema):
    big = 10**5000
    a, b = f"{decimal_by_digits(big)},0,0", f"{decimal_by_digits(big + 1)},-1,0"
    code, report = invoke_json(capsys, schema, "verify-esch", "--a", a, "--b", b)
    assert code == 0
    (result,) = report["results"]
    assert result["esch"]["a"][0] == decimal_by_digits(big)
    code, out, _ = invoke(capsys, "verify-esch", "--a", a, "--b", b)
    assert code == 0
    assert out.startswith(f"a=({decimal_by_digits(big)}, 0, 0) b=({decimal_by_digits(big + 1)}, -1, 0)\n")


def test_huge_parameters_report_their_own_reason(capsys, schema):
    # the rejection must name the real fault, not the int/str digit limit
    big = decimal_by_digits(10**5000)
    argv = ("window", f"--a={big},0,0", f"--b=0,0,{big}")
    code, _, err = invoke(capsys, *argv)
    assert code == 2
    assert err == f"error (invalid-input): a=({big}, 0, 0) b=(0, 0, {big}) " \
                  "fails the fixed-metric positive-curvature test\n"
    code, report = invoke_json(capsys, schema, *argv)
    assert code == 2 and "positive-curvature test" in report["error"]["reason"]

    q1 = "21" + "0" * 5000
    code, _, err = invoke(capsys, "submanifolds", f"--q={q1},1,1,1,1")
    assert code == 2
    assert err == f"error (invalid-input): submanifolds needs all entries odd, got ({q1}, 1, 1, 1, 1)\n"

    code, _, err = invoke(capsys, "verify-esch", f"--a={big},0,1", f"--b={big},0,0")
    assert code == 2
    assert f"sum(a) = {decimal_by_digits(10**5000 + 1)}, sum(b) = {big}" in err


def test_dual_rejects_a_singular_shift_past_the_limit(capsys):
    # shifting by a multiple of every modulus D_k keeps shift 0's verdict,
    # and shift 0 of the running example is singular
    period = 1
    for d in _moduli(*E_RUNNING.a, *E_RUNNING.b)[1::2]:
        period *= abs(d)
    c = period * 10**5000
    assert not nonsingular_shift(E_RUNNING, c)
    code, _, err = invoke(capsys, "dual", "--a=2,0,0", "--b=15,-2,-11", f"--c={decimal_by_digits(c)}")
    assert code == 2
    assert err == (f"error (invalid-input): shift {decimal_by_digits(c)} of a=(2, 0, 0) "
                   "b=(15, -2, -11) yields a singular candidate\n")


def test_parser_is_built_once_and_keeps_no_state(capsys, monkeypatch):
    assert cli._parser() is cli._parser()
    shifts = ("certified-shifts", "--a", "2,0,0", "--b", "15,-2,-11", "--mu-max", "2")
    sequence = [
        ("families", "--k-max"),
        ("--help",),
        ("families", "--k-max", "3", "--format", "json"),
        (*shifts, "--format", "csv"),
        shifts,
    ]
    shared = [invoke(capsys, *argv) for argv in sequence]
    monkeypatch.setattr(cli, "_parser", cli._parser.__wrapped__)
    fresh = [invoke(capsys, *argv) for argv in sequence]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 0, 0, 0, 0]
    assert "usage: eschbaz families" in shared[0][2]
    assert shared[3][1].startswith("mu,sign,c,nonsingular\r\n")
    assert shared[4][1].startswith("a=(2, 0, 0) b=(15, -2, -11)\n")
    monkeypatch.undo()
    for argv in sequence[2:]:
        assert vars(cli._parser().parse_args(argv)) == vars(cli._parser.__wrapped__().parse_args(argv))
    args = cli._parser().parse_args(shifts)
    assert args.format == "text"
    assert args.handler is cli._cmd_certified_shifts


def test_json_error_reports_are_machine_readable(capsys, schema):
    code, out, _ = invoke(capsys, "verify-esch", "--a", "1,0,0", "--b", "1,1,0",
                          "--format", "json")
    assert code == 2
    report = json.loads(out)
    jsonschema.validate(report, schema)
    assert report["error"]["kind"] == "invalid-input"
    assert "sum(a)" in report["error"]["reason"]


def test_json_error_kinds_are_the_ones_run_writes(capsys, schema, monkeypatch):
    # each exception type run maps to an exit code, raised by the library call
    # behind counterexamples: a kind that run stops writing, or that the schema
    # drops or keeps after run has dropped it, fails here
    raised = [
        (VerificationFailure("v"), cli.EXIT_VERIFICATION_FAILED),
        (FactorizationIncomplete("f"), cli.EXIT_EFFORT_EXCEEDED),
        (ValueError("x"), cli.EXIT_INVALID_INPUT),
        (InternalError("i"), cli.EXIT_INTERNAL_ERROR),
        (OSError(errno.EAGAIN, os.strerror(errno.EAGAIN)), cli.EXIT_OS_ERROR),
    ]
    written = set()
    for exc, expected in raised:
        def fail(exc=exc):
            raise exc

        monkeypatch.setattr("eschbaz.survey.verify_known_counterexamples", fail)
        code, report = invoke_json(capsys, schema, "counterexamples")
        assert code == expected, exc
        written.add(report["error"]["kind"])
    (_, error_report) = schema["oneOf"]
    assert written == set(error_report["properties"]["error"]["properties"]["kind"]["enum"])


def test_json_variants_are_the_family_table(schema):
    # _FAMILIES is the one list of variants in the package; the schema's enum must follow it
    assert schema["definitions"]["survey_row"]["properties"]["variant"]["enum"] == list(_FAMILIES)


@pytest.mark.parametrize(("argv", "command", "reason"), [
    (("embed", "--a=2,0,0", "--b=15,-2,-11", "--c=x", "--format", "json"),
     "embed", "argument --c: invalid integer value: 'x'"),
    (("certified-shifts", "--a=2,0,0", "--b=15,-2,-11", "--format=json"),
     "certified-shifts", "the following arguments are required: --mu-max"),
    (("embed", "--format", "csv", "--a=2,0,0", "--b=15,-2,-11", "--c=1", "--bogus", "--form", "json"),
     "embed", "unrecognized arguments: --bogus"),
    (("no-such-command", "--format", "json"), "no-such-command", "argument command: invalid choice: "),
    # the top-level parser has no --format, so it reads json as the command
    (("--format", "json"), "", "argument command: invalid choice: 'json'"),
], ids=["malformed-flag", "missing-flag", "unknown-flag", "unknown-command", "no-command"])
def test_usage_errors_under_json_write_an_invalid_input_report(capsys, schema, argv, command, reason):
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and err.startswith("usage: ")
    report = json.loads(out)
    jsonschema.validate(report, schema)
    assert report["command"] == command and report["error"]["kind"] == "invalid-input"
    assert report["error"]["reason"].startswith(reason)


@pytest.mark.parametrize("fmt", [(), ("--format", "text"), ("--format", "csv"), ("--format", "json", "--format", "csv"),
                                 ("--format",), ("--format", "xml")])
def test_usage_errors_outside_json_leave_stdout_empty(capsys, fmt):
    code, out, err = invoke(capsys, "embed", "--a=2,0,0", "--b=15,-2,-11", "--c=x", *fmt)
    assert (code, out) == (2, "") and err.startswith("usage: ")


# one valid invocation of every subcommand; scan leaves --workers at its default
_VALID = {
    "verify-esch": ("--a=2,0,0", "--b=15,-2,-11"),
    "verify-baz": ("--q=3,-1,-1,5,23",),
    "embed": ("--a=2,0,0", "--b=15,-2,-11", "--c=2"),
    "window": ("--a=3,1,1", "--b=5,0,0"),
    "certified-shifts": ("--a=1,1,1", "--b=3,0,0", "--mu-max=2"),
    "distinct": ("--a=2,0,0", "--b=15,-2,-11", "--n=3"),
    "submanifolds": ("--q=3,-1,-1,5,23",),
    "dual": ("--a=2,0,0", "--b=15,-2,-11", "--c=-1"),
    "counterexamples": (),
    "families": ("--k-max=1",),
    "cohom1": ("--p-max=5",),
    "scan": ("--max-abs=8", "--limit=5"),
}


def test_json_all_commands_validate(capsys, schema):
    for command, args in _VALID.items():
        code, report = invoke_json(capsys, schema, command, *args)
        assert code == 0, command
        assert report["command"] == command
        assert "version" in report


def test_json_input_echoes_the_space_and_every_declared_integer_flag(capsys, schema):
    (subparsers,) = [a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(subparsers.choices) == sorted(_VALID)
    for command, subparser in subparsers.choices.items():
        given = dict(arg[2:].split("=") for arg in _VALID[command])
        expected = {}
        if "a" in given:
            expected["esch"] = {"a": [int(x) for x in given["a"].split(",")],
                                "b": [int(x) for x in given["b"].split(",")]}
        if "q" in given:
            q = [int(x) for x in given["q"].split(",")]
            expected["baz"] = {"q": q, "qsum": sum(q)}
        for action in subparser._actions:
            if action.type is cli.integer:
                key = "shift" if action.dest == "c" else action.dest
                expected[key] = int(given.get(action.option_strings[0][2:], action.default))
        code, report = invoke_json(capsys, schema, command, *_VALID[command])
        assert code == 0, command
        assert list(report["input"].items()) == list(expected.items()), command


# ---------------------------------------------------------------------------
# the JSON writer against json.dumps of the old converted copy


_SAFE = 2**53 - 1
_AWKWARD = ["", "plain", "caf\u00e9 \u2028 \U0001f600", 'quote " and \\ backslash', "\x00\x01\n\t\x1f\x7f"]


def _oracle_json(x) -> str:
    return json.dumps(to_jsonable_oracle(x), indent=2)


def test_json_writer_matches_the_oracle_on_edge_values():
    tree = {
        "empty": {}, "none": [], "unit": (), "nested": {"a": [[], {}, [[{}]]], "b": ({"c": ()},)},
        "flags": [True, False, None],
        "edges": [_SAFE, -_SAFE, _SAFE + 1, -_SAFE - 1, 0, 10**5000, -(10**4400) - 7],
        **{key: key for key in _AWKWARD},
    }
    assert cli._json_text(tree) == _oracle_json(tree)
    for leaf in [None, True, False, 0, _SAFE + 1, "x", [], {}, ()]:
        assert cli._json_text(leaf) == _oracle_json(leaf)


_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([_SAFE, -_SAFE, _SAFE + 1, -_SAFE - 1]),
    st.integers(-(10**4400), 10**4400),
    st.text(),
    st.sampled_from(_AWKWARD),
)
_keys = st.one_of(st.text(), st.sampled_from(_AWKWARD))
_trees = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_keys, children, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_trees)
def test_json_writer_matches_the_oracle(tree):
    assert cli._json_text(tree) == _oracle_json(tree)


@pytest.mark.parametrize("value", [1.5, {1, 2}, b"bytes", object(), {"a": [1, 2.0]}, [range(3)], {1: "int key"},
                                   Fraction(1, 3)])
def test_json_writer_rejects_unsupported_types(value):
    with pytest.raises(TypeError):
        cli._json_text(value)


# ---------------------------------------------------------------------------
# each call builds only the requested format


def _refuse(*args, **kwargs):
    raise AssertionError("built a format nobody asked for")


# the formats whose builders may call each rendering helper
_HELPER_FORMATS = {
    "_cert_dict": "json", "_row_dict": "json", "_window_dict": "json", "_offense_dicts": "json",
    "_json_text": "json",
    "_cert_lines": "text", "_row_line": "text", "_yn": "text",
    "_certs_csv": "csv", "_ab_cells": "csv", "_csv_cell": "csv",
    "_fmt_window": "text csv", "_fmt_offenses": "text csv",
}


def test_unrequested_formats_are_never_built(capsys, monkeypatch):
    # every subcommand in every format, with each helper of another format
    # refused; the input echo's _esch_dict and _baz_dict run for every format
    want = {(command, fmt): invoke(capsys, command, *argv, "--format", fmt)
            for command, argv in _VALID.items() for fmt in ("json", "text", "csv")}
    assert all(code == 0 for code, _, _ in want.values())
    for fmt in ("json", "text", "csv"):
        with monkeypatch.context() as m:
            for name, formats in _HELPER_FORMATS.items():
                if fmt not in formats.split():
                    m.setattr(cli, name, _refuse)
            for command, argv in _VALID.items():
                assert invoke(capsys, command, *argv, "--format", fmt) == want[command, fmt], (command, fmt)


# ---------------------------------------------------------------------------
# CSV output


def test_csv_counterexamples_mirrors_table(capsys):
    code, out, _ = invoke(capsys, "counterexamples", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["a", "b", "q_formula", "window"]
    assert len(rows) == 10
    assert rows[1] == ["(39, 0, 0)", "(55, -3, -13)",
                       "(79+2c, 1+2c, 1+2c, 5-2c, 25-2c)", "0 <= c <= 7"]
    assert rows[9] == ["(12909, 0, 0)", "(12925, -3, -13)",
                       "(25819+2c, 1+2c, 1+2c, 5-2c, 25-2c)", "0 <= c <= 7"]


def test_q_formula_gives_the_candidate_at_every_window_shift():
    rows = verify_known_counterexamples() + [row for _, _, row in verify_infinite_families(3)]
    assert len(rows) == 9 + 2 * 4
    for row in rows:
        terms = cli._q_formula(row.esch)[1:-1].split(", ")
        assert all(re.fullmatch(r"-?\d+[+-]2c", t) for t in terms), terms
        for c in row.window:  # "79+2c" is 79 + 2*c, "5-2c" is 5 - 2*c
            assert tuple(int(t[:-3]) + int(t[-3:-1]) * c for t in terms) == candidate_q(row.esch, c).q, (row.esch, c)


def test_csv_has_header_everywhere(capsys):
    for argv in [
        ("verify-esch", "--a", "2,0,0", "--b", "15,-2,-11"),
        ("window", "--a", "2,0,0", "--b", "15,-2,-11"),
        ("cohom1", "--p-max", "3"),
    ]:
        code, out, _ = invoke(capsys, *argv, "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) >= 2
        assert all(rows[0])  # nonempty header cells


# ---------------------------------------------------------------------------
# notes and specific surfaces


def test_cohom1_emits_discrepancy_note(capsys, schema):
    code, report = invoke_json(capsys, schema, "cohom1", "--p-max", "3")
    assert code == 0
    notes = report["discrepancy_notes"]
    assert any("-1 <= c <= 0" in n and "{-1}" in n for n in notes)
    _, text_out, _ = invoke(capsys, "cohom1", "--p-max", "3")
    assert "-1 <= c <= 0" in text_out


def test_window_note_only_for_the_family(capsys, schema):
    _, report = invoke_json(capsys, schema, "window", "--a", "3,1,1", "--b", "5,0,0")
    assert report["discrepancy_notes"]
    _, report = invoke_json(capsys, schema, "window", "--a", "2,0,0", "--b", "15,-2,-11")
    assert report["discrepancy_notes"] == []


def test_submanifolds_reports_dedup_count(capsys, schema):
    code, report = invoke_json(capsys, schema, "submanifolds", "--q", "1,1,1,1,1")
    assert code == 0
    assert len(report["results"]) == 10
    assert report["summary"]["distinct_count"] == 1
    assert all(r["esch"]["a"] == [0, 0, 0] for r in report["results"])


def test_dual_text_and_json(capsys, schema):
    code, report = invoke_json(capsys, schema, "dual",
                               "--a", "2,0,0", "--b", "15,-2,-11", "--c", "-1")
    assert code == 0
    (result,) = report["results"]
    assert result["dual"]["baz"]["q"] == [29, -5, -23, 1, 1]
    assert result["original"]["h6"] == result["dual"]["h6"] == 503


def test_scan_text_mentions_stats(capsys):
    code, out, _ = invoke(capsys, "scan", "--max-abs", "8", "--limit", "5")
    assert code == 0
    assert "0 counterexamples" in out
