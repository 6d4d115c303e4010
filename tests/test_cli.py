import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import decimal_by_digits, to_jsonable_oracle
from eschbaz import EschParams, InternalError, certified_shift, nonsingular_shift
from eschbaz import cli
from eschbaz.cli import run
from eschbaz.embedding import _singularity_moduli

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
    code, _, err = invoke(capsys, "scan", "--max-abs", "8", "--limit", "5", "--workers", "0")
    assert code == 2
    assert "workers must be >= 1" in err


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


def test_exit_four_on_internal_error(capsys, schema, monkeypatch):
    # a normal form that breaks its own chain is a bug, not bad input
    monkeypatch.setattr("eschbaz.eschenburg.in_pc_normal_form", lambda e: False)
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


def test_console_entry_point(capsys):
    src = Path(__file__).resolve().parents[1] / "src"
    paths = [str(src), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    argv = ["counterexamples", "--format", "csv"]
    proc = subprocess.run([sys.executable, "-m", "eschbaz.cli", *argv], env=env, capture_output=True)
    assert proc.returncode == 0
    assert run(argv) == 0
    assert proc.stdout == capsys.readouterr().out.encode()
    proc = subprocess.run([sys.executable, "-m", "eschbaz.cli", "verify-baz", "--q", "1,2,3"],
                          env=env, capture_output=True)
    assert proc.returncode == 2


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
    for _, d in _singularity_moduli(E_RUNNING):
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
    monkeypatch.setattr(cli, "_parser", cli._build_parser)
    fresh = [invoke(capsys, *argv) for argv in sequence]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 0, 0, 0, 0]
    assert "usage: eschbaz families" in shared[0][2]
    assert shared[3][1].startswith("mu,sign,c,nonsingular\r\n")
    assert shared[4][1].startswith("a=(2, 0, 0) b=(15, -2, -11)\n")
    monkeypatch.undo()
    for argv in sequence[2:]:
        assert vars(cli._parser().parse_args(argv)) == vars(cli._build_parser().parse_args(argv))
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


def test_json_all_commands_validate(capsys, schema):
    invocations = [
        ("verify-esch", "--a", "2,0,0", "--b", "15,-2,-11"),
        ("verify-baz", "--q", "3,-1,-1,5,23"),
        ("embed", "--a", "2,0,0", "--b", "15,-2,-11", "--c", "2"),
        ("window", "--a", "3,1,1", "--b", "5,0,0"),
        ("certified-shifts", "--a", "1,1,1", "--b", "3,0,0", "--mu-max", "2"),
        ("distinct", "--a", "2,0,0", "--b", "15,-2,-11", "--n", "3"),
        ("submanifolds", "--q", "3,-1,-1,5,23"),
        ("dual", "--a", "2,0,0", "--b", "15,-2,-11", "--c", "-1"),
        ("counterexamples",),
        ("families", "--k-max", "1"),
        ("cohom1", "--p-max", "5"),
        ("scan", "--max-abs", "8", "--limit", "5"),
    ]
    for argv in invocations:
        code, report = invoke_json(capsys, schema, *argv)
        assert code == 0, argv
        assert report["command"] == argv[0]
        assert "version" in report


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


def test_unrequested_formats_are_never_built(capsys, monkeypatch):
    embed = ("embed", "--a", "2,0,0", "--b", "15,-2,-11", "--c", "2")
    families = ("families", "--k-max", "2")
    want = {(argv, fmt): invoke(capsys, *argv, "--format", fmt)
            for argv in (embed, families) for fmt in ("json", "csv")}
    assert all(code == 0 for code, _, _ in want.values())

    monkeypatch.setattr(cli, "_cert_lines", _refuse)
    monkeypatch.setattr(cli, "_row_line", _refuse)
    for argv in (embed, families):
        assert invoke(capsys, *argv, "--format", "csv") == want[argv, "csv"]
    monkeypatch.setattr(cli, "_certs_csv", _refuse)
    monkeypatch.setattr(cli, "_fmt_window", _refuse)
    for argv in (embed, families):
        assert invoke(capsys, *argv, "--format", "json") == want[argv, "json"]


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
