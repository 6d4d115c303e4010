"""Command-line front end.

Parses parameters, dispatches to the library, and emits a report as
human-readable text (default), JSON, or CSV.  Each handler computes its
results first, so every error is raised before any output, and hands back
its text and CSV renderings as builders: ``_emit`` calls only the one for
the requested format.  JSON is written by one walk of the report tree,
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
moment.

Exit codes: 0 all checks passed, 1 a mathematical verification failed,
2 invalid input, 3 a computational effort limit was reached, 4 an internal
invariant of the package failed (a bug; the error kind is "internal-error").
"""

from __future__ import annotations

import argparse
import csv
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


# ---------------------------------------------------------------------------
# argument parsing helpers


def integer(text: str) -> int:
    """argparse type for an integer of any size (``int`` stops at 4300 digits)."""
    return from_decimal(text)


def _ints(text: str, count: int, what: str) -> tuple[int, ...]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != count:
        raise ValueError(f"{what} must be {count} comma-separated integers, got {text!r}")
    try:
        return tuple(from_decimal(p) for p in parts)
    except ValueError:
        raise ValueError(f"{what} must be integers, got {text!r}") from None


def _esch_from_args(args: argparse.Namespace) -> EschParams:
    return EschParams(_ints(args.a, 3, "--a"), _ints(args.b, 3, "--b"))


def _baz_from_args(args: argparse.Namespace) -> BazParams:
    return BazParams(_ints(args.q, 5, "--q"))


# ---------------------------------------------------------------------------
# structured result builders (shared by the text, JSON, and CSV renderings)


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


def _cert_dict(cert: EmbeddingCertificate) -> dict:
    return {
        "esch": _esch_dict(cert.esch),
        "shift": cert.shift,
        "baz": _baz_dict(cert.baz),
        "baz_free": cert.baz_free,
        "baz_pc": cert.baz_pc,
        "esch_pc": cert.esch_pc,
        "h6": cert.h6,
        "offending_pairs": _offense_dicts(cert.offending_pairs),
    }


def _row_dict(row: SurveyRow) -> dict:
    return {
        "esch": _esch_dict(row.esch),
        "window": _window_dict(row.window),
        "verdicts": list(row.verdicts),
        "is_counterexample": row.is_counterexample,
        "h4": row.h4,
    }


def _q_formula(e: EschParams) -> str:
    """Symbolic candidate 5-tuple, e.g. '(79+2c, 1+2c, 1+2c, 5-2c, 25-2c)'."""
    heads = embedding.candidate_q(e, 0).q
    terms = [f"{to_decimal(h)}+2c" for h in heads[:3]] + [f"{to_decimal(h)}-2c" for h in heads[3:]]
    return "(" + ", ".join(terms) + ")"


# ---------------------------------------------------------------------------
# text rendering


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _fmt_esch(d: dict) -> str:
    return f"a={tuple_to_decimal(d['a'])} b={tuple_to_decimal(d['b'])}"


def _fmt_window(d: dict) -> str:
    return f"{to_decimal(d['lo'])} <= c <= {to_decimal(d['hi'])}"


def _fmt_offenses(offenses: list[dict]) -> str:
    return "; ".join(
        f"gcd(q{o['pair1'][0]}+q{o['pair1'][1]}, q{o['pair2'][0]}+q{o['pair2'][1]}) = {to_decimal(o['gcd'])}"
        for o in offenses
    )


def _cert_lines(c: dict) -> list[str]:
    lines = [
        f"{_fmt_esch(c['esch'])}  shift c={to_decimal(c['shift'])}",
        f"  q = {tuple_to_decimal(c['baz']['q'])}",
        f"  non-singular: {_yn(c['baz_free'])}",
    ]
    if c["offending_pairs"]:
        lines.append(f"    {_fmt_offenses(c['offending_pairs'])}")
    lines.append(f"  positively curved (host): {_yn(c['baz_pc'])}")
    lines.append(f"  positively curved (submanifold): {_yn(c['esch_pc'])}")
    if c["baz_free"]:
        lines.append(f"  |H6| = {to_decimal(c['h6'])}")
    return lines


def _row_line(r: dict) -> str:
    verdict = "counterexample" if r["is_counterexample"] else "embeds"
    marks = "".join("-" if ok else "x" for ok in r["verdicts"])
    return (
        f"{_fmt_esch(r['esch'])}  window {_fmt_window(r['window'])}  "
        f"[{marks}]  |H4|={to_decimal(r['h4'])}  {verdict}"
    )


# ---------------------------------------------------------------------------
# subcommand handlers: each computes its results eagerly, so every error is
# raised before any output, and returns the JSON parts (input, results, notes,
# summary) with zero-argument "text" and "csv" builders that only format them


def _cmd_verify_esch(args) -> dict:
    e = _esch_from_args(args)
    canonical = eschenburg.canonicalize(e)
    result = {
        "esch": _esch_dict(e),
        "free": eschenburg.is_free(e),
        "pc_some_metric": eschenburg.admits_positive_curvature(e),
        "pc_fixed_metric": eschenburg.is_pc_metric(e),
        "h4": eschenburg.h4_order(e),
        "kernel_order": eschenburg.kernel_order(e),
        "canonical": _esch_dict(canonical),
    }
    return {
        "input": {"esch": _esch_dict(e)},
        "results": [result],
        "text": lambda: [
            _fmt_esch(result["esch"]),
            f"  free:                    {_yn(result['free'])}",
            f"  pc (some metric):        {_yn(result['pc_some_metric'])}",
            f"  pc (fixed metric):       {_yn(result['pc_fixed_metric'])}",
            f"  |H4|:                    {to_decimal(result['h4'])}",
            f"  kernel order:            {to_decimal(result['kernel_order'])}",
            f"  canonical form:          {_fmt_esch(result['canonical'])}",
        ],
        "csv": lambda: [
            ["a", "b", "free", "pc_some_metric", "pc_fixed_metric", "h4", "kernel_order",
             "canonical_a", "canonical_b"],
            [tuple_to_decimal(e.a), tuple_to_decimal(e.b), result["free"], result["pc_some_metric"],
             result["pc_fixed_metric"], result["h4"], result["kernel_order"],
             tuple_to_decimal(canonical.a), tuple_to_decimal(canonical.b)],
        ],
    }


def _cmd_verify_baz(args) -> dict:
    q = _baz_from_args(args)
    all_odd = q.all_odd()
    offenses = _offense_dicts(bazaikin.freeness_failures(q))
    result = {
        "baz": _baz_dict(q),
        "all_odd": all_odd,
        "free": bazaikin.is_free_baz(q),
        "pc": bazaikin.is_pc_baz(q),
        "h6": bazaikin.h6_order(q) if all_odd else None,
        "offending_pairs": offenses,
    }

    def text() -> list[str]:
        evens = ", ".join(f"q{i}" for i, v in enumerate(q.q, 1) if v % 2 == 0)
        lines = [
            f"q = {tuple_to_decimal(q.q)}  (sum {to_decimal(q.qsum)})",
            f"  all odd:            {_yn(all_odd)}" + ("" if all_odd else f"  (even entries: {evens})"),
            f"  free:               {_yn(result['free'])}",
        ]
        if offenses:
            lines.append(f"    {_fmt_offenses(offenses)}")
        lines.append(f"  positively curved:  {_yn(result['pc'])}")
        h6 = to_decimal(result["h6"]) if all_odd else "undefined (even entries)"
        lines.append(f"  |H6|:               {h6}")
        return lines

    return {
        "input": {"baz": _baz_dict(q)},
        "results": [result],
        "text": text,
        "csv": lambda: [
            ["q", "all_odd", "free", "pc", "h6", "offending_pairs"],
            [tuple_to_decimal(q.q), all_odd, result["free"], result["pc"],
             result["h6"], _fmt_offenses(offenses)],
        ],
    }


def _certs_csv(certs: list[dict]) -> list[list]:
    table = [["a", "b", "shift", "q", "baz_free", "baz_pc", "esch_pc", "h6", "offending_pairs"]]
    for c in certs:
        table.append([
            tuple_to_decimal(c["esch"]["a"]), tuple_to_decimal(c["esch"]["b"]), c["shift"],
            tuple_to_decimal(c["baz"]["q"]), c["baz_free"], c["baz_pc"], c["esch_pc"],
            c["h6"], _fmt_offenses(c["offending_pairs"]),
        ])
    return table


def _cmd_embed(args) -> dict:
    e = _esch_from_args(args)
    cert = _cert_dict(embedding.make_certificate(e, args.c))
    return {
        "input": {"esch": _esch_dict(e), "shift": args.c},
        "results": [cert],
        "text": lambda: _cert_lines(cert),
        "csv": lambda: _certs_csv([cert]),
    }


def _cmd_window(args) -> dict:
    e = _esch_from_args(args)
    report = embedding.window_scan(e)
    certs = [_cert_dict(c) for c in report.certificates]
    result = {
        "esch": _esch_dict(report.esch),
        "window": _window_dict(report.window),
        "any_nonsingular": report.any_nonsingular,
        "certificates": certs,
    }
    notes = list(report.notes)

    def text() -> list[str]:
        lines = [
            f"normal form: {_fmt_esch(result['esch'])}",
            f"window: {_fmt_window(result['window'])}",
        ]
        for c in certs:
            if c["baz_free"]:
                mark, extra = "non-singular", f"|H6|={to_decimal(c['h6'])}"
            else:
                mark, extra = "singular", _fmt_offenses(c["offending_pairs"][:1])
            lines.append(f"  c={to_decimal(c['shift']):<4} q={tuple_to_decimal(c['baz']['q']):<40} {mark}  {extra}")
        lines.append(f"any non-singular: {_yn(result['any_nonsingular'])}")
        lines.extend(f"note: {note}" for note in notes)
        return lines

    return {
        "input": {"esch": _esch_dict(e)},
        "results": [result],
        "notes": notes,
        "text": text,
        "csv": lambda: _certs_csv(certs),
    }


def _cmd_certified_shifts(args) -> dict:
    e = _esch_from_args(args)
    results = []
    for mu in range(1, args.mu_max + 1):
        for sign in (1, -1):
            c = embedding.certified_shift(e, mu, sign)
            results.append({"mu": mu, "sign": sign, "c": c, "nonsingular": embedding.nonsingular_shift(e, c)})
    return {
        "input": {"esch": _esch_dict(e), "mu_max": args.mu_max},
        "results": results,
        "text": lambda: [str(e)] + [
            f"  mu={r['mu']} sign={'+' if r['sign'] > 0 else '-'}  c = {to_decimal(r['c'])}  "
            f"non-singular: {_yn(r['nonsingular'])}"
            for r in results
        ],
        "csv": lambda: [["mu", "sign", "c", "nonsingular"]]
        + [[r["mu"], r["sign"], r["c"], r["nonsingular"]] for r in results],
    }


def _cmd_distinct(args) -> dict:
    e = _esch_from_args(args)
    certs = [_cert_dict(c) for c in embedding.homotopy_distinct_embeddings(e, args.n)]
    return {
        "input": {"esch": _esch_dict(e), "n": args.n},
        "results": certs,
        "text": lambda: [line for c in certs for line in _cert_lines(c)],
        "csv": lambda: _certs_csv(certs),
    }


def _cmd_submanifolds(args) -> dict:
    q = _baz_from_args(args)
    entries = bazaikin.submanifolds(q)
    results = [
        {"pair": list(pair), "esch": _esch_dict(e), "h4": eschenburg.h4_order(e), "free": eschenburg.is_free(e)}
        for pair, e in entries
    ]
    distinct = len({eschenburg.canonicalize(e) for _, e in entries})
    return {
        "input": {"baz": _baz_dict(q)},
        "results": results,
        "summary": {"distinct_count": distinct},
        "text": lambda: [f"q = {tuple_to_decimal(q.q)}"] + [
            f"  {{{r['pair'][0]},{r['pair'][1]}}}: {_fmt_esch(r['esch'])}  "
            f"|H4|={to_decimal(r['h4'])}  free: {_yn(r['free'])}"
            for r in results
        ] + [f"distinct up to isometry moves: {distinct}"],
        "csv": lambda: [["pair", "a", "b", "h4", "free"]] + [
            [f"{{{r['pair'][0]},{r['pair'][1]}}}", tuple_to_decimal(r["esch"]["a"]),
             tuple_to_decimal(r["esch"]["b"]), r["h4"], r["free"]]
            for r in results
        ],
    }


def _cmd_dual(args) -> dict:
    e = _esch_from_args(args)
    q = embedding.candidate_q(e, args.c)
    dual_esch, dual_baz = embedding.dual_embedding(e, args.c)
    original = {"esch": _esch_dict(e), "shift": args.c, "baz": _baz_dict(q), "h6": bazaikin.h6_order(q)}
    dual = {"esch": _esch_dict(dual_esch), "baz": _baz_dict(dual_baz), "h6": bazaikin.h6_order(dual_baz)}
    return {
        "input": {"esch": _esch_dict(e), "shift": args.c},
        "results": [{"original": original, "dual": dual}],
        "text": lambda: [
            f"original: {_fmt_esch(original['esch'])}  shift c={to_decimal(args.c)}",
            f"  q = {tuple_to_decimal(q.q)}  |H6|={to_decimal(original['h6'])}",
            f"dual:     {_fmt_esch(dual['esch'])}",
            f"  q = {tuple_to_decimal(dual_baz.q)}  |H6|={to_decimal(dual['h6'])}",
        ],
        "csv": lambda: [
            ["role", "a", "b", "q", "h6"],
            ["original", tuple_to_decimal(e.a), tuple_to_decimal(e.b), tuple_to_decimal(q.q),
             original["h6"]],
            ["dual", tuple_to_decimal(dual_esch.a), tuple_to_decimal(dual_esch.b),
             tuple_to_decimal(dual_baz.q), dual["h6"]],
        ],
    }


def _cmd_counterexamples(args) -> dict:
    rows = survey.verify_known_counterexamples()
    results = [{**_row_dict(row), "q_formula": _q_formula(row.esch)} for row in rows]
    return {
        "input": {},
        "results": results,
        "text": lambda: [_row_line(d) for d in results]
        + [f"all {len(rows)} stored counterexamples verified"],
        "csv": lambda: [["a", "b", "q_formula", "window"]] + [
            [tuple_to_decimal(d["esch"]["a"]), tuple_to_decimal(d["esch"]["b"]),
             d["q_formula"], _fmt_window(d["window"])]
            for d in results
        ],
    }


def _cmd_families(args) -> dict:
    rows = survey.verify_infinite_families(args.k_max)
    per_variant = args.k_max + 1
    results = [
        {**_row_dict(row), "variant": "A" if i < per_variant else "B", "k": i % per_variant}
        for i, row in enumerate(rows)
    ]
    return {
        "input": {"k_max": args.k_max},
        "results": results,
        "text": lambda: [f"{d['variant']} k={d['k']:<4} {_row_line(d)}" for d in results]
        + [f"both families verified as counterexamples for 0 <= k <= {args.k_max}"],
        "csv": lambda: [["variant", "k", "a", "b", "window", "counterexample"]] + [
            [d["variant"], d["k"], tuple_to_decimal(d["esch"]["a"]), tuple_to_decimal(d["esch"]["b"]),
             _fmt_window(d["window"]), d["is_counterexample"]]
            for d in results
        ],
    }


def _cmd_cohom1(args) -> dict:
    summary = survey.verify_cohomogeneity_one(args.p_max)
    certs = [{**_cert_dict(c), "p": p} for p, c in enumerate(summary.certificates, start=1)]
    checked, notes = summary.p_max, list(summary.notes)
    return {
        "input": {"p_max": args.p_max},
        "results": certs,
        "summary": {"checked": checked},
        "notes": notes,
        "text": lambda: [
            f"p={c['p']:<4} q={tuple_to_decimal(c['baz']['q']):<24} "
            f"non-singular: {_yn(c['baz_free'])}  pc: {_yn(c['baz_pc'])}"
            for c in certs
        ] + [f"all {checked} members verified at shift c=-1"] + [f"note: {note}" for note in notes],
        "csv": lambda: [["p", "q", "baz_free", "baz_pc"]]
        + [[c["p"], tuple_to_decimal(c["baz"]["q"]), c["baz_free"], c["baz_pc"]] for c in certs],
    }


def _cmd_scan(args) -> dict:
    stats, rows = survey.scan_box(args.max_abs, args.limit, workers=args.workers)
    results = [_row_dict(row) for row in rows]
    beyond = stats.counterexamples - len(rows)
    return {
        "input": {"max_abs": args.max_abs, "limit": args.limit, "workers": args.workers},
        "results": results,
        "summary": {"stats": {"total": stats.total, "embeddable": stats.embeddable,
                              "counterexamples": stats.counterexamples}},
        "text": lambda: [
            f"box |entries| <= {args.max_abs}: {stats.total} spaces, {stats.embeddable} embeddable, "
            f"{stats.counterexamples} counterexamples"
        ] + [_row_line(d) for d in results] + [f"({beyond} more beyond --limit {args.limit})"] * (beyond > 0),
        "csv": lambda: [["a", "b", "window", "h4"]] + [
            [tuple_to_decimal(d["esch"]["a"]), tuple_to_decimal(d["esch"]["b"]),
             _fmt_window(d["window"]), d["h4"]]
            for d in results
        ],
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
            if not isinstance(key, str):
                raise TypeError(f"cannot serialize a {type(key)!r} key")
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
    if v is None:
        return ""
    if isinstance(v, int) and not isinstance(v, bool):
        return to_decimal(v)
    return v


def _emit(fmt: str, command: str, outcome: dict, out=None) -> None:
    """Write the outcome in one format, building only that format's output."""
    out = out or sys.stdout
    if fmt == "json":
        report = {
            "command": command,
            "version": __version__,
            "input": outcome.get("input", {}),
            "results": outcome.get("results", []),
            "discrepancy_notes": outcome.get("notes", []),
        }
        if "summary" in outcome:
            report["summary"] = outcome["summary"]
        out.write(_json_text(report) + "\n")
    elif fmt == "csv":
        writer = csv.writer(out)
        for row in outcome["csv"]():
            writer.writerow([_csv_cell(v) for v in row])
    else:
        for line in outcome["text"]():
            out.write(line + "\n")


def _emit_error(fmt: str, command: str, kind: str, reason: str, out=None, err=None) -> None:
    if fmt == "json":
        report = {"command": command, "version": __version__, "error": {"kind": kind, "reason": reason}}
        (out or sys.stdout).write(_json_text(report) + "\n")
    else:
        print(f"error ({kind}): {reason}", file=err or sys.stderr)


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"), default="text",
                        help="output format (default: text)")

    parser = argparse.ArgumentParser(
        prog="eschbaz",
        description="Exact-integer verification and search for totally geodesic "
                    "embeddings of Eschenburg spaces into Bazaikin spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, **arguments):
        p = sub.add_parser(name, parents=[common], help=help_text)
        for flag, opts in arguments.items():
            p.add_argument(flag, **opts)
        p.set_defaults(handler=handler)
        return p

    add("verify-esch", _cmd_verify_esch,
        "freeness, curvature, |H4|, kernel order, canonical form",
        **{"--a": dict(required=True, help="a1,a2,a3"),
           "--b": dict(required=True, help="b1,b2,b3")})
    add("verify-baz", _cmd_verify_baz,
        "freeness (with offending gcd pairs), curvature, |H6|",
        **{"--q": dict(required=True, help="q1,q2,q3,q4,q5")})
    add("embed", _cmd_embed, "one embedding certificate at a given shift",
        **{"--a": dict(required=True), "--b": dict(required=True),
           "--c": dict(required=True, type=integer, help="shift")})
    add("window", _cmd_window, "scan the whole positive-curvature shift window",
        **{"--a": dict(required=True), "--b": dict(required=True)})
    add("certified-shifts", _cmd_certified_shifts,
        "shifts of the form +-2^(mu-1) P^mu, guaranteed non-singular",
        **{"--a": dict(required=True), "--b": dict(required=True),
           "--mu-max": dict(required=True, type=int)})
    add("distinct", _cmd_distinct,
        "non-singular hosts with pairwise distinct |H6|",
        **{"--a": dict(required=True), "--b": dict(required=True),
           "--n": dict(required=True, type=int)})
    add("submanifolds", _cmd_submanifolds,
        "the ten embedded Eschenburg parameter sets of a 5-tuple",
        **{"--q": dict(required=True)})
    add("dual", _cmd_dual, "swapped space and its host at a non-singular shift",
        **{"--a": dict(required=True), "--b": dict(required=True),
           "--c": dict(required=True, type=integer)})
    add("counterexamples", _cmd_counterexamples,
        "re-verify the nine stored counterexample spaces")
    add("families", _cmd_families,
        "verify the two infinite counterexample families",
        **{"--k-max": dict(required=True, type=int)})
    add("cohom1", _cmd_cohom1,
        "verify the cohomogeneity-one family at shift -1",
        **{"--p-max": dict(required=True, type=int)})
    add("scan", _cmd_scan, "survey a parameter box for counterexamples",
        **{"--max-abs": dict(required=True, type=int),
           "--limit": dict(required=True, type=int),
           "--workers": dict(type=int, default=1)})
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser every ``run`` shares, built on first use (not at import)."""
    return _build_parser()


def run(argv: list[str] | None = None) -> int:
    """Parse arguments, dispatch, emit a report, return the exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INVALID_INPUT
    fmt, command = args.format, args.command
    try:
        outcome = args.handler(args)
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
    _emit(fmt, command, outcome)
    return EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
