"""Command-line front end.

Parses parameters, dispatches to the library, and emits a report as
human-readable text (default), JSON, or CSV.  Each handler makes every
library call first, so every error is raised before any output, and hands
back one builder per format, each over the library's own values
(``EschParams``, ``BazParams``, ``range``, certificates, survey rows) or the
handler's locals: ``_emit`` calls only the one for the requested format, and
no text or CSV builder reads a JSON dict; ``verify-baz`` reads freeness,
curvature and |H6| off one ``bazaikin.host_facts`` pass, as an embedding
certificate does.  JSON is written by one walk of the report tree,
``_json_text``, with the layout of ``json.dumps(indent=2)``; it follows the
schema shipped as ``report_schema.json``, and integers beyond the 53-bit
float-safe range are written as decimal strings so no consumer can lose
precision.
Integers cross the command line in both directions through
``arith.from_decimal`` and ``arith.to_decimal``, so no argument or output is
held to the interpreter's 4300-digit int/str limit.

The argument parser is built once per process, on the first ``run``, and
reused by every later call; each parse starts from a fresh namespace, and
help and usage text are written to the ``sys.stdout``/``sys.stderr`` of the
moment.  ``_parser`` declares each parameter once, and each integer flag's
least value and cap beside it, so the bounds are read once per process, when
the parser is built.  ``_read_input``, run between parsing and the handler,
walks the subcommand's integer flags once: it checks each bound (so a bound
error names the flag, as ``--k-max must be >= 0``), then parses the space and
echoes it with every integer flag as the JSON ``input``.

Exit codes: 0 all checks passed, 1 a mathematical verification failed,
2 invalid input, 3 a computational effort limit was reached, 4 an internal
invariant of the package failed (a bug; the error kind is "internal-error"),
74 stdout could not be written (as in ``eschbaz families > /dev/full``; one
"output-failed" line on stderr), 141 the reader of stdout closed it early (as in
``eschbaz families | head``).
A usage error exits 2 with argparse's usage text on stderr; when the
arguments ask for JSON it also writes an "invalid-input" report with
argparse's message to stdout.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from functools import cache
from json.encoder import encode_basestring_ascii as _json_string

from . import __version__, bazaikin, embedding, eschenburg, survey
from .arith import FactorizationIncomplete, InternalError, from_decimal, to_decimal, tuple_to_decimal
from .bazaikin import BazParams
from .embedding import EmbeddingCertificate
from .eschenburg import EschParams
from .survey import SurveyRow, VerificationFailure

_JSON_SAFE = 2**53 - 1

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_EFFORT_EXCEEDED = 3
EXIT_INTERNAL_ERROR = 4
EXIT_OUTPUT_FAILED = 74  # EX_IOERR in sysexits.h
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a tool that SIGPIPE ended

# Output grows quadratically in these flags; at 1000 the running example writes
# about 7 MB (--mu-max) and 12 MB (--n) of CSV.
MU_MAX_LIMIT = 1000
N_LIMIT = 1000
# Output grows linearly in these; at 10,000 families writes 1.3 MB of CSV and
# cohom1 0.37 MB.
K_MAX_LIMIT = 10_000
P_MAX_LIMIT = 10_000
# The largest box scan allows: 7.77M spaces, 0.76-1.6 s serial (2026-10-20, each
# call in its own process) on a 2-core Xeon VM with Python 3.11.7.
MAX_ABS_LIMIT = 200
# Shifts in the curvature window that ``window`` builds certificates for; the
# window of a=(1,0,0), b=(100001,-1,-99999) has 50,000 and writes 43.6 MB of
# JSON, while the stored counterexamples have at most 11.
WINDOW_LIMIT = 10_000


# ---------------------------------------------------------------------------
# argument parsing helpers


def integer(text: str) -> int:
    """argparse type for an integer of any size (``int`` stops at 4300 digits)."""
    return from_decimal(text)


def _ints(text: str, count: int, what: str) -> tuple[int, ...]:
    parts = text.split(",")
    if len(parts) != count:
        raise ValueError(f"{what} must be {count} comma-separated integers, got {text!r}")
    try:
        return tuple(from_decimal(p) for p in parts)
    except ValueError:
        raise ValueError(f"{what} must be integers, got {text!r}") from None


def _read_input(args: argparse.Namespace) -> tuple[EschParams | BazParams | None, dict]:
    """(space or None, JSON ``input``), checking every bound before parsing the space.

    One pass over the subcommand's integer flags and the bounds declared
    beside them refuses a value below its least value or above its cap as
    ``--flag must be >= least`` or ``--flag must be <= cap``.  The echo holds
    the space, then each integer flag, with ``--c`` as "shift".
    """
    given, integers = vars(args), {}
    for key, bounds in args.integers.items():
        value = integers["shift" if key == "c" else key] = given[key]
        if bounds:
            least, cap = bounds
            flag = "--" + key.replace("_", "-")
            if value < least:
                raise ValueError(f"{flag} must be >= {least}")
            if cap is not None and value > cap:
                raise ValueError(f"{flag} must be <= {cap}")
    if "a" in given:
        space = EschParams(_ints(args.a, 3, "--a"), _ints(args.b, 3, "--b"))
        return space, {"esch": _esch_dict(space), **integers}
    if "q" in given:
        space = BazParams(_ints(args.q, 5, "--q"))
        return space, {"baz": _baz_dict(space), **integers}
    return None, integers


# ---------------------------------------------------------------------------
# JSON results


def _esch_dict(e: EschParams) -> dict:
    return {"a": list(e.a), "b": list(e.b)}


def _baz_dict(q: BazParams) -> dict:
    return {"q": list(q.q), "qsum": q.qsum}


def _window_dict(w: range) -> dict:
    return {"lo": w.start, "hi": w[-1]}


def _offense_dicts(pairs) -> list[dict]:
    return [
        {"pair1": list(p1), "pair2": list(p2), "gcd": g}
        for p1, p2, g in pairs
    ]


def _cert_dict(cert: EmbeddingCertificate, **extras) -> dict:
    return {
        "esch": _esch_dict(cert.esch),
        "shift": cert.shift,
        "baz": _baz_dict(cert.baz),
        "baz_free": cert.baz_free,
        "baz_pc": cert.baz_pc,
        "esch_pc": cert.esch_pc,
        "h6": cert.h6,
        "offending_pairs": _offense_dicts(cert.offending_pairs),
        **extras,
    }


def _row_dict(row: SurveyRow, **extras) -> dict:
    """A counterexample row: every shift's verdict is False."""
    return {
        "esch": _esch_dict(row.esch),
        "window": _window_dict(row.window),
        "verdicts": [False] * len(row.window),
        "is_counterexample": True,
        "h4": row.h4,
        **extras,
    }


def _q_formula(e: EschParams) -> str:
    """Symbolic candidate 5-tuple, e.g. '(79+2c, 1+2c, 1+2c, 5-2c, 25-2c)'.

    Each entry's slope is read from ``candidate_q`` at shifts 0 and 1.
    """
    heads, nexts = embedding.candidate_q(e, 0).q, embedding.candidate_q(e, 1).q
    return "(" + ", ".join(f"{to_decimal(h)}{n - h:+}c" for h, n in zip(heads, nexts)) + ")"


# ---------------------------------------------------------------------------
# text and CSV rendering


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _fmt_window(w: range) -> str:
    return f"{to_decimal(w.start)} <= c <= {to_decimal(w[-1])}"


def _fmt_offenses(offenses) -> str:
    """The ((i, j), (k, l), g) gcd conditions of ``bazaikin.freeness_failures``, on one line."""
    return "; ".join(f"gcd(q{i}+q{j}, q{k}+q{l}) = {to_decimal(g)}" for (i, j), (k, l), g in offenses)


def _cert_lines(c: EmbeddingCertificate) -> list[str]:
    lines = [
        f"{c.esch}  shift c={to_decimal(c.shift)}",
        f"  q = {tuple_to_decimal(c.baz.q)}",
        f"  non-singular: {_yn(c.baz_free)}",
    ]
    if c.offending_pairs:
        lines.append(f"    {_fmt_offenses(c.offending_pairs)}")
    lines.append(f"  positively curved (host): {_yn(c.baz_pc)}")
    lines.append(f"  positively curved (submanifold): {_yn(c.esch_pc)}")
    if c.baz_free:
        lines.append(f"  |H6| = {to_decimal(c.h6)}")
    return lines


def _row_line(r: SurveyRow) -> str:
    """A counterexample row: one x per shift of its window, each singular."""
    marks = "x" * len(r.window)
    return f"{r.esch}  window {_fmt_window(r.window)}  [{marks}]  |H4|={to_decimal(r.h4)}  counterexample"


def _ab_cells(e: EschParams) -> list[str]:
    """The "a" and "b" cells of a CSV row."""
    return [tuple_to_decimal(e.a), tuple_to_decimal(e.b)]


def _certs_csv(certs) -> list[list]:
    return [["a", "b", "shift", "q", "baz_free", "baz_pc", "esch_pc", "h6", "offending_pairs"]] + [
        [*_ab_cells(c.esch), c.shift, tuple_to_decimal(c.baz.q), c.baz_free, c.baz_pc, c.esch_pc, c.h6,
         _fmt_offenses(c.offending_pairs)]
        for c in certs
    ]


# ---------------------------------------------------------------------------
# subcommand handlers: each takes the parsed space (or None) and flags, makes
# every library call first, so every error is raised before any output, and
# returns zero-argument "json", "text" and "csv" builders over the values it
# got.  The JSON builder gives the report's "results" and, where it has them,
# "discrepancy_notes" and "summary".


def _cmd_verify_esch(e: EschParams, args) -> dict:
    canonical, free = eschenburg.canonicalize(e), eschenburg.is_free(e)
    pc_some, pc_fixed = eschenburg.admits_positive_curvature(e), eschenburg.is_pc_metric(e)
    h4, kernel = eschenburg.h4_order(e), eschenburg.kernel_order(e)
    return {
        "json": lambda: {"results": [{
            "esch": _esch_dict(e),
            "free": free,
            "pc_some_metric": pc_some,
            "pc_fixed_metric": pc_fixed,
            "h4": h4,
            "kernel_order": kernel,
            "canonical": _esch_dict(canonical),
        }]},
        "text": lambda: [
            str(e),
            f"  free:                    {_yn(free)}",
            f"  pc (some metric):        {_yn(pc_some)}",
            f"  pc (fixed metric):       {_yn(pc_fixed)}",
            f"  |H4|:                    {to_decimal(h4)}",
            f"  kernel order:            {to_decimal(kernel)}",
            f"  canonical form:          {canonical}",
        ],
        "csv": lambda: [
            ["a", "b", "free", "pc_some_metric", "pc_fixed_metric", "h4", "kernel_order",
             "canonical_a", "canonical_b"],
            [*_ab_cells(e), free, pc_some, pc_fixed, h4, kernel, *_ab_cells(canonical)],
        ],
    }


def _cmd_verify_baz(q: BazParams, args) -> dict:
    offenses, pc, h6 = bazaikin.host_facts(q)
    all_odd, free = h6 is not None, not offenses

    def text() -> list[str]:
        evens = ", ".join(f"q{i}" for i, v in enumerate(q.q, 1) if v % 2 == 0)
        lines = [
            f"q = {tuple_to_decimal(q.q)}  (sum {to_decimal(q.qsum)})",
            f"  all odd:            {_yn(all_odd)}" + ("" if all_odd else f"  (even entries: {evens})"),
            f"  free:               {_yn(free)}",
        ]
        if offenses:
            lines.append(f"    {_fmt_offenses(offenses)}")
        lines.append(f"  positively curved:  {_yn(pc)}")
        lines.append(f"  |H6|:               {to_decimal(h6) if all_odd else 'undefined (even entries)'}")
        return lines

    return {
        "json": lambda: {"results": [{"baz": _baz_dict(q), "all_odd": all_odd, "free": free, "pc": pc, "h6": h6,
                                      "offending_pairs": _offense_dicts(offenses)}]},
        "text": text,
        "csv": lambda: [
            ["q", "all_odd", "free", "pc", "h6", "offending_pairs"],
            [tuple_to_decimal(q.q), all_odd, free, pc, h6, _fmt_offenses(offenses)],
        ],
    }


def _certs_report(certs) -> dict:
    """The builders of a certificate list's report, shared by ``embed`` and ``distinct``."""
    return {
        "json": lambda: {"results": [_cert_dict(c) for c in certs]},
        "text": lambda: [line for c in certs for line in _cert_lines(c)],
        "csv": lambda: _certs_csv(certs),
    }


def _cmd_embed(e: EschParams, args) -> dict:
    return _certs_report([embedding.make_certificate(e, args.c)])


def _cmd_window(e: EschParams, args) -> dict:
    report = embedding.window_scan(e, WINDOW_LIMIT)

    def text() -> list[str]:
        lines = [f"normal form: {report.esch}", f"window: {_fmt_window(report.window)}"]
        for c in report.certificates:
            if c.baz_free:
                mark, extra = "non-singular", f"|H6|={to_decimal(c.h6)}"
            else:
                mark, extra = "singular", _fmt_offenses(c.offending_pairs[:1])
            lines.append(f"  c={to_decimal(c.shift):<4} q={tuple_to_decimal(c.baz.q):<40} {mark}  {extra}")
        lines.append(f"any non-singular: {_yn(report.any_nonsingular)}")
        lines.extend(f"note: {note}" for note in report.notes)
        return lines

    return {
        "json": lambda: {
            "results": [{
                "esch": _esch_dict(report.esch),
                "window": _window_dict(report.window),
                "any_nonsingular": report.any_nonsingular,
                "certificates": [_cert_dict(c) for c in report.certificates],
            }],
            "discrepancy_notes": report.notes,
        },
        "text": text,
        "csv": lambda: _certs_csv(report.certificates),
    }


def _cmd_certified_shifts(e: EschParams, args) -> dict:
    shifts = []
    for mu in range(1, args.mu_max + 1):
        for sign in (1, -1):
            c = embedding.certified_shift(e, mu, sign)
            shifts.append((mu, sign, c, embedding.nonsingular_shift(e, c)))
    return {
        "json": lambda: {"results": [{"mu": mu, "sign": sign, "c": c, "nonsingular": ok}
                                     for mu, sign, c, ok in shifts]},
        "text": lambda: [str(e)] + [
            f"  mu={mu} sign={'+' if sign > 0 else '-'}  c = {to_decimal(c)}  non-singular: {_yn(ok)}"
            for mu, sign, c, ok in shifts
        ],
        "csv": lambda: [["mu", "sign", "c", "nonsingular"], *shifts],
    }


def _cmd_distinct(e: EschParams, args) -> dict:
    return _certs_report(embedding.homotopy_distinct_embeddings(e, args.n))


def _cmd_submanifolds(q: BazParams, args) -> dict:
    entries = [(pair, e, eschenburg.h4_order(e), eschenburg.is_free(e)) for pair, e in bazaikin.submanifolds(q)]
    distinct = len({eschenburg.canonicalize(e) for _, e, _, _ in entries})
    return {
        "json": lambda: {
            "results": [{"pair": list(pair), "esch": _esch_dict(e), "h4": h4, "free": free}
                        for pair, e, h4, free in entries],
            "summary": {"distinct_count": distinct},
        },
        "text": lambda: [f"q = {tuple_to_decimal(q.q)}"] + [
            f"  {{{i},{j}}}: {e}  |H4|={to_decimal(h4)}  free: {_yn(free)}" for (i, j), e, h4, free in entries
        ] + [f"distinct up to isometry moves: {distinct}"],
        "csv": lambda: [["pair", "a", "b", "h4", "free"]]
        + [[f"{{{i},{j}}}", *_ab_cells(e), h4, free] for (i, j), e, h4, free in entries],
    }


def _cmd_dual(e: EschParams, args) -> dict:
    q = embedding.candidate_q(e, args.c)
    dual_esch, dual_baz = embedding.dual_embedding(e, args.c)
    h6, dual_h6 = bazaikin.h6_order(q), bazaikin.h6_order(dual_baz)
    return {
        "json": lambda: {"results": [{
            "original": {"esch": _esch_dict(e), "shift": args.c, "baz": _baz_dict(q), "h6": h6},
            "dual": {"esch": _esch_dict(dual_esch), "baz": _baz_dict(dual_baz), "h6": dual_h6},
        }]},
        "text": lambda: [
            f"original: {e}  shift c={to_decimal(args.c)}",
            f"  q = {tuple_to_decimal(q.q)}  |H6|={to_decimal(h6)}",
            f"dual:     {dual_esch}",
            f"  q = {tuple_to_decimal(dual_baz.q)}  |H6|={to_decimal(dual_h6)}",
        ],
        "csv": lambda: [
            ["role", "a", "b", "q", "h6"],
            ["original", *_ab_cells(e), tuple_to_decimal(q.q), h6],
            ["dual", *_ab_cells(dual_esch), tuple_to_decimal(dual_baz.q), dual_h6],
        ],
    }


def _cmd_counterexamples(_, args) -> dict:
    rows = survey.verify_known_counterexamples()
    formulas = [_q_formula(row.esch) for row in rows]
    return {
        "json": lambda: {"results": [_row_dict(row, q_formula=f) for row, f in zip(rows, formulas)]},
        "text": lambda: [_row_line(row) for row in rows] + [f"all {len(rows)} stored counterexamples verified"],
        "csv": lambda: [["a", "b", "q_formula", "window"]]
        + [[*_ab_cells(row.esch), f, _fmt_window(row.window)] for row, f in zip(rows, formulas)],
    }


def _cmd_families(_, args) -> dict:
    labelled = survey.verify_infinite_families(args.k_max)
    return {
        "json": lambda: {"results": [_row_dict(row, variant=v, k=k) for v, k, row in labelled]},
        "text": lambda: [f"{v} k={k:<4} {_row_line(row)}" for v, k, row in labelled]
        + [f"both families verified as counterexamples for 0 <= k <= {args.k_max}"],
        "csv": lambda: [["variant", "k", "a", "b", "window", "counterexample"]]
        + [[v, k, *_ab_cells(row.esch), _fmt_window(row.window), True] for v, k, row in labelled],
    }


def _cmd_cohom1(_, args) -> dict:
    members = survey.verify_cohomogeneity_one(args.p_max)
    note = embedding.COHOM1_WINDOW_NOTE
    return {
        "json": lambda: {
            "results": [_cert_dict(c, p=p) for p, c in members],
            "summary": {"checked": args.p_max},
            "discrepancy_notes": [note],
        },
        "text": lambda: [
            f"p={p:<4} q={tuple_to_decimal(c.baz.q):<24} non-singular: {_yn(c.baz_free)}  pc: {_yn(c.baz_pc)}"
            for p, c in members
        ] + [f"all {args.p_max} members verified at shift c=-1", f"note: {note}"],
        "csv": lambda: [["p", "q", "baz_free", "baz_pc"]]
        + [[p, tuple_to_decimal(c.baz.q), c.baz_free, c.baz_pc] for p, c in members],
    }


def _cmd_scan(_, args) -> dict:
    stats, rows = survey.scan_box(args.max_abs, args.limit)
    beyond = stats.counterexamples - len(rows)
    return {
        "json": lambda: {
            "results": [_row_dict(row) for row in rows],
            "summary": {"stats": {"total": stats.total, "embeddable": stats.embeddable,
                                  "counterexamples": stats.counterexamples}},
        },
        "text": lambda: [
            f"box |entries| <= {args.max_abs}: {stats.total} spaces, {stats.embeddable} embeddable, "
            f"{stats.counterexamples} counterexamples"
        ] + [_row_line(row) for row in rows] + [f"({beyond} more beyond --limit {args.limit})"] * (beyond > 0),
        "csv": lambda: [["a", "b", "window", "h4"]]
        + [[*_ab_cells(row.esch), _fmt_window(row.window), row.h4] for row in rows],
    }


# ---------------------------------------------------------------------------
# emission


def _json_text(value) -> str:
    """``json.dumps(value, indent=2)`` of a report tree, written in one walk.

    Strings go through the C ``encode_basestring_ascii`` (``ensure_ascii``
    escaping) and ints beyond +-(2**53 - 1) become ``to_decimal`` strings;
    dict keys must be strings.  Any other type raises ``TypeError``.
    """
    parts: list[str] = []
    _json_write(value, "\n", parts)
    return "".join(parts)


def _json_write(x, newline: str, parts: list[str]) -> None:
    """Append the JSON text of x to parts; newline is a newline plus x's indent.

    Module-level rather than a closure, so no call leaves a reference cycle
    that keeps its parts alive until the cyclic garbage collector runs.
    """
    if isinstance(x, str):
        parts.append(_json_string(x))
    elif x is None:
        parts.append("null")
    elif x is True:
        parts.append("true")
    elif x is False:
        parts.append("false")
    elif isinstance(x, int):
        parts.append(int.__repr__(x) if -_JSON_SAFE <= x <= _JSON_SAFE else _json_string(to_decimal(x)))
    elif isinstance(x, dict):
        if not x:
            parts.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, v in x.items():
            parts.append(separator + _json_string(key) + ": ")
            _json_write(v, inner, parts)
            separator = "," + inner
        parts.append(newline + "}")
    elif isinstance(x, (list, tuple)):
        if not x:
            parts.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for v in x:
            parts.append(separator)
            _json_write(v, inner, parts)
            separator = "," + inner
        parts.append(newline + "]")
    else:
        raise TypeError(f"cannot serialize {type(x)!r}")


def _csv_cell(v):
    """An int in decimal at any size; ``csv`` writes the rest (None as "", bools as True/False)."""
    return to_decimal(v) if type(v) is int else v


def _emit(fmt: str, command: str, echo: dict, builders: dict) -> None:
    """Write the report in one format, calling only that format's builder."""
    out, built = sys.stdout, builders[fmt]()
    if fmt == "json":
        # the builder's keys fill these slots in place, so "summary" comes last
        report = {"command": command, "version": __version__, "input": echo, "results": [],
                  "discrepancy_notes": [], **built}
        out.write(_json_text(report) + "\n")
    elif fmt == "csv":
        writer = csv.writer(out)
        for row in built:
            writer.writerow([_csv_cell(v) for v in row])
    else:
        for line in built:
            out.write(line + "\n")


def _emit_error(fmt: str, command: str, kind: str, reason: str) -> None:
    if fmt == "json":
        report = {"command": command, "version": __version__, "error": {"kind": kind, "reason": reason}}
        sys.stdout.write(_json_text(report) + "\n")
    else:
        print(f"error ({kind}): {reason}", file=sys.stderr)


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """argparse's parser; a usage error's SystemExit keeps the message, for a JSON report."""

    def error(self, message):
        try:
            super().error(message)
        except SystemExit as exc:
            exc.reason = message
            raise


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser every ``run`` shares, built on first use (not at import)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"), default="text",
                        help="output format (default: text)")
    esch = argparse.ArgumentParser(add_help=False)
    esch.add_argument("--a", required=True, help="a1,a2,a3")
    esch.add_argument("--b", required=True, help="b1,b2,b3")
    baz = argparse.ArgumentParser(add_help=False)
    baz.add_argument("--q", required=True, help="q1,q2,q3,q4,q5")

    parser = _Parser(
        prog="eschbaz",
        description="Exact-integer verification and search for totally geodesic "
                    "embeddings of Eschenburg spaces into Bazaikin spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, *parents, **integers):
        """A subcommand; each keyword is a required integer flag and its bounds.

        Bounds are (least, cap or None), or None if unbounded, kept as ``integers``:
        each flag's bounds sit beside it and are read once per process, here.
        """
        p = sub.add_parser(name, parents=[common, *parents], help=help_text)
        for key in integers:
            p.add_argument("--" + key.replace("_", "-"), type=integer, required=True)
        p.set_defaults(handler=handler, integers=integers)

    add("verify-esch", _cmd_verify_esch, "freeness, curvature, |H4|, kernel order, canonical form", esch)
    add("verify-baz", _cmd_verify_baz, "freeness (with offending gcd pairs), curvature, |H6|", baz)
    add("embed", _cmd_embed, "one embedding certificate at a given shift", esch, c=None)
    add("window", _cmd_window, "scan the whole positive-curvature shift window", esch)
    add("certified-shifts", _cmd_certified_shifts,
        "shifts of the form +-2^(mu-1) P^mu, guaranteed non-singular", esch, mu_max=(1, MU_MAX_LIMIT))
    add("distinct", _cmd_distinct, "non-singular hosts with pairwise distinct |H6|", esch, n=(1, N_LIMIT))
    add("submanifolds", _cmd_submanifolds, "the ten embedded Eschenburg parameter sets of a 5-tuple", baz)
    add("dual", _cmd_dual, "swapped space and its host at a non-singular shift", esch, c=None)
    add("counterexamples", _cmd_counterexamples, "re-verify the nine stored counterexample spaces")
    add("families", _cmd_families, "verify the two infinite counterexample families", k_max=(0, K_MAX_LIMIT))
    add("cohom1", _cmd_cohom1, "verify the cohomogeneity-one family at shift -1", p_max=(1, P_MAX_LIMIT))
    add("scan", _cmd_scan, "survey a parameter box for counterexamples",
        max_abs=(1, MAX_ABS_LIMIT), limit=(1, None))
    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse arguments, dispatch, emit a report, return the exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        if not exc.code:  # help
            return EXIT_OK
        # only now that parsing failed: does argv ask for JSON, and for which command?
        # Optional values, so no argv can make the probe itself fail.
        probe = argparse.ArgumentParser(add_help=False)
        probe.add_argument("--format", nargs="?")
        probe.add_argument("command", nargs="?")
        asked = probe.parse_known_args(argv)[0]
        if asked.format == "json":
            _emit_error("json", asked.command or "", "invalid-input", exc.reason)
        return EXIT_INVALID_INPUT
    fmt, command = args.format, args.command
    try:
        space, echo = _read_input(args)
        builders = args.handler(space, args)
    except VerificationFailure as exc:
        _emit_error(fmt, command, "verification-failed", str(exc))
        return EXIT_VERIFICATION_FAILED
    except FactorizationIncomplete as exc:
        _emit_error(fmt, command, "effort-exceeded", str(exc))
        return EXIT_EFFORT_EXCEEDED
    except ValueError as exc:
        _emit_error(fmt, command, "invalid-input", str(exc))
        return EXIT_INVALID_INPUT
    except InternalError as exc:
        _emit_error(fmt, command, "internal-error", str(exc))
        return EXIT_INTERNAL_ERROR
    _emit(fmt, command, echo, builders)
    return EXIT_OK


def main() -> None:
    """Run the command line; exit 141 if the reader of stdout goes away, 74 if stdout fails.

    SIGPIPE keeps its Python default (ignored): a write into a closed pipe
    raises BrokenPipeError, which becomes 141, the code a shell reports for
    a tool that SIGPIPE ended, with no process-wide signal handler set.  Any
    other OSError (a full device, say) writes one "output-failed" line to
    stderr.  Either way devnull replaces stdout
    so the flush at interpreter exit stays silent.
    """
    try:
        code = run()
        sys.stdout.flush()
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):
            code = EXIT_BROKEN_PIPE
        else:
            print(f"error (output-failed): {exc.strerror or exc}", file=sys.stderr)
            code = EXIT_OUTPUT_FAILED
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
