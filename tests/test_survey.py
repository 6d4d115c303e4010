"""Survey jobs and the box scan.

The box scan is also pinned by one sha256 of ``repr(scan_box(m, 10**6))``
per box m in ``data/scan_golden.json``; after an intended change to the
scan's output, rewrite the file with

    PYTHONPATH=src python tests/test_survey.py
"""

import copy
import dataclasses
import functools
import hashlib
import json
import pickle
import random
import re
from importlib import resources
from math import gcd
from pathlib import Path

import pytest

from conftest import random_pc_esch
from oracles import (
    decimal_by_digits,
    enumerate_normal_forms,
    first_nonsingular_shift,
    is_free_six_gcds,
    normal_forms,
    row_from_report,
)
from eschbaz import (
    BazParams,
    EmbeddingCertificate,
    EschParams,
    InternalError,
    VerificationFailure,
    family_cohomogeneity_one,
    family_cohomogeneity_two,
    is_free,
    is_pc_metric,
    make_certificate,
    pc_normal_form,
    pc_shift_window,
    scan_box,
    verify_cohomogeneity_one,
    verify_infinite_families,
    verify_known_counterexamples,
    window_scan,
)
from eschbaz import cli
from eschbaz.embedding import _moduli, _window
from eschbaz.eschenburg import _in_chain
import eschbaz.survey as survey_mod
from eschbaz.survey import (
    KNOWN_COUNTEREXAMPLES,
    ScanStats,
)

E_RUNNING = EschParams((2, 0, 0), (15, -2, -11))
SCAN_GOLDEN = Path(__file__).with_name("data") / "scan_golden.json"
SCAN_BOXES = (10, 24, 40, 60, 100, 200)


def test_stored_rows_shape():
    assert len(KNOWN_COUNTEREXAMPLES) == 9
    assert KNOWN_COUNTEREXAMPLES[0] == ((39, 0, 0), (55, -3, -13), range(0, 8))
    assert KNOWN_COUNTEREXAMPLES[3] == ((225, 4, 0), (247, -5, -13), range(-2, 9))
    assert KNOWN_COUNTEREXAMPLES[8] == ((12909, 0, 0), (12925, -3, -13), range(0, 8))


def test_verify_known_counterexamples():
    rows = verify_known_counterexamples()
    assert len(rows) == 9
    for row, (a, b, window) in zip(rows, KNOWN_COUNTEREXAMPLES):
        assert row.esch == EschParams(a, b)
        assert row.window == window
        assert row.h4 % 2 == 1


def test_verify_infinite_families_matches_stored_rows_at_k0():
    table = verify_known_counterexamples()
    # variant A, k=0 is the first stored row and variant B, k=0 the last
    assert verify_infinite_families(0) == [("A", 0, table[0]), ("B", 0, table[8])]


def test_verify_infinite_families_small():
    labelled = verify_infinite_families(3)
    assert len(labelled) == 8
    assert all(is_free(r.esch) and is_pc_metric(r.esch) for _, _, r in labelled)
    with pytest.raises(ValueError):
        verify_infinite_families(-1)


def test_verification_jobs_match_the_certificate_path():
    assert verify_known_counterexamples() == [
        row_from_report(window_scan(EschParams(a, b))) for a, b, _ in KNOWN_COUNTEREXAMPLES
    ]
    labelled = verify_infinite_families(30)
    assert [(v, k) for v, k, _ in labelled] == [(v, k) for v in ("A", "B") for k in range(31)]
    assert [row for _, _, row in labelled] == [
        row_from_report(window_scan(family_cohomogeneity_two(v, k))) for v, k, _ in labelled
    ]


def _planted_failure(monkeypatch, job, e):
    """The failure of a counterexample job with e planted in its input, and its message prefix.

    The table gets e as stored row 10, the families as member A, k=1, and
    the scan as the one singular form its kernel reports.
    """
    if job == "table":
        # the stored window is E_RUNNING's; the other planted spaces fail before it is compared
        rows = KNOWN_COUNTEREXAMPLES + ((e.a, e.b, range(0, 6)),)
        monkeypatch.setattr(survey_mod, "KNOWN_COUNTEREXAMPLES", rows)
        where, call = "row 10", verify_known_counterexamples
    elif job == "families":
        def family(variant, k):
            return e if (variant, k) == ("A", 1) else family_cohomogeneity_two(variant, k)

        monkeypatch.setattr(survey_mod, "family_cohomogeneity_two", family)
        where, call = "family A, k=1", lambda: verify_infinite_families(2)
    else:
        monkeypatch.setattr(survey_mod, "_scan_shard", lambda tails, max_abs: (1, [(e.a, e.b)]))
        where, call = "scan_box(10)", lambda: scan_box(10, 3)
    with pytest.raises(VerificationFailure) as info:
        call()
    return info.value, where


COUNTEREXAMPLE_JOBS = ("table", "families", "scan")


@pytest.mark.parametrize("job", COUNTEREXAMPLE_JOBS)
def test_counterexample_that_is_not_free_fails(monkeypatch, job):
    failure, where = _planted_failure(monkeypatch, job, EschParams((1, 0, 0), (3, 1, -3)))
    assert str(failure) == f"{where}: a=(1, 0, 0) b=(3, 1, -3) is not free"


@pytest.mark.parametrize("job", COUNTEREXAMPLE_JOBS)
def test_counterexample_that_is_not_positively_curved_fails(monkeypatch, job):
    e = EschParams((0, 2, 2), (0, 1, 3))
    assert is_free(e)
    failure, where = _planted_failure(monkeypatch, job, e)
    assert str(failure) == f"{where}: a=(0, 2, 2) b=(0, 1, 3) is not positively curved"


@pytest.mark.parametrize("job", COUNTEREXAMPLE_JOBS)
def test_counterexample_that_embeds_names_its_nonsingular_shifts(monkeypatch, job):
    report = window_scan(E_RUNNING)
    assert report.window == range(0, 6)
    good = [cert.shift for cert in report.certificates if cert.baz_free]
    assert good == [2, 5]
    failure, where = _planted_failure(monkeypatch, job, E_RUNNING)
    assert str(failure) == f"{where}: {E_RUNNING} embeds after all (non-singular at c in [2, 5])"


def test_scan_row_that_embeds_stops_the_scan(monkeypatch, capsys):
    import jsonschema  # here, so the rest of this file runs where jsonschema does not import

    # a kernel that walks only the first shift of each window takes forms that embed for counterexamples
    monkeypatch.setattr(survey_mod, "_window", lambda *entries: _window(*entries)[:1])
    e = EschParams((4, 0, 0), (13, -4, -5))
    with pytest.raises(VerificationFailure) as info:
        scan_box(10, 3)
    assert str(info.value) == f"scan_box(10): {e} embeds after all (non-singular at c in [2, 3])"
    assert [cert.shift for cert in window_scan(e).certificates if cert.baz_free] == [2, 3]

    schema = json.loads(resources.files("eschbaz").joinpath("report_schema.json").read_text())
    assert cli.run(["scan", "--max-abs", "10", "--limit", "1", "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, schema)
    assert report["error"] == {"kind": "verification-failed", "reason": str(info.value)}


def test_every_row_is_built_by_counterexample_row(monkeypatch):
    original = survey_mod._counterexample_row
    built = []

    def recorded(e, where):
        row = original(e, where)
        built.append(row)
        return row

    monkeypatch.setattr(survey_mod, "_counterexample_row", recorded)
    for call in (verify_known_counterexamples,
                 lambda: [row for _, _, row in verify_infinite_families(2)],
                 lambda: scan_box(60, 10**6)[1]):
        built.clear()
        rows = call()
        # the scan sorts its rows, so compare as sets of the very objects built
        assert rows and len(rows) == len(built)
        assert {id(row) for row in rows} == {id(row) for row in built}


def test_cohomogeneity_one_candidate_mismatch_fails(monkeypatch):
    def family(p):
        return EschParams((p, 1, 1), (p + 2, 1, -1))

    monkeypatch.setattr(survey_mod, "family_cohomogeneity_one", family)
    with pytest.raises(VerificationFailure) as info:
        verify_cohomogeneity_one(3)
    assert str(info.value) == "p=1: candidate q=(1, 1, 1, -1, 3) != q=(1, 1, 1, 1, 1)"


def test_cohomogeneity_one_singular_certificate_fails(monkeypatch):
    def singular(e, c):
        return dataclasses.replace(make_certificate(e, c), baz_free=False)

    monkeypatch.setattr(survey_mod, "make_certificate", singular)
    with pytest.raises(VerificationFailure) as info:
        verify_cohomogeneity_one(3)
    assert str(info.value) == "p=1: candidate q=(1, 1, 1, 1, 1) free=False pc=True"


def test_verify_cohomogeneity_one():
    labelled = verify_cohomogeneity_one(10)
    assert [p for p, _ in labelled] == list(range(1, 11))
    for p, cert in labelled:
        assert isinstance(cert, EmbeddingCertificate)
        assert cert.esch == family_cohomogeneity_one(p)
        assert cert.baz == BazParams((2 * p - 1, 1, 1, 1, 1))
        assert cert.shift == -1
        assert cert.baz_free and cert.baz_pc
    with pytest.raises(ValueError):
        verify_cohomogeneity_one(0)


@pytest.fixture(scope="module")
def box60():
    return scan_box(60, 10**6)


def _scan_digest(outcome):
    return hashlib.sha256(repr(outcome).encode()).hexdigest()


@pytest.mark.parametrize("max_abs", SCAN_BOXES)
def test_scan_box_matches_golden_digest(max_abs, box60):
    outcome = box60 if max_abs == 60 else scan_box(max_abs, 10**6)
    assert _scan_digest(outcome) == json.loads(SCAN_GOLDEN.read_text())[str(max_abs)]


def test_scan_box_small_is_empty():
    stats, rows = scan_box(5, 10)
    assert rows == []
    assert stats.counterexamples == 0
    assert stats.total == stats.embeddable
    assert stats.total > 0
    # box 1 has no tail (b3, b2), so it holds no space
    assert scan_box(1, 10) == (ScanStats(total=0, embeddable=0, counterexamples=0), [])


def test_scan_box_rows_are_counterexamples_and_sorted(box60):
    stats, rows = box60
    assert stats.total >= stats.embeddable + stats.counterexamples
    assert stats.total == stats.embeddable + stats.counterexamples
    assert any(r.esch == EschParams((39, 0, 0), (55, -3, -13)) for r in rows)
    assert [r.h4 for r in rows] == sorted(r.h4 for r in rows)
    # each row equals the one the full-certificate path builds, which
    # checks every shift of the window singular
    assert all(r == row_from_report(window_scan(r.esch)) for r in rows)


def test_scan_box_counts_each_space_once(box60):
    # a=(39,0,0), b=(55,-3,-13) also enters the box through its mirrored
    # canonical form a=(39,39,0), b=(-16,52,42); the scan must not report it
    # (or count it) twice
    stats, rows = box60
    hits = [r for r in rows if r.esch == EschParams((39, 0, 0), (55, -3, -13))]
    assert len(hits) == 1


def test_scan_box_validates_arguments(monkeypatch):
    assert scan_box(True, True) == scan_box(1, 1)

    def no_scan(*args):
        raise AssertionError("the box was scanned before its arguments were checked")

    monkeypatch.setattr(survey_mod, "_scan_shard", no_scan)
    with pytest.raises(ValueError):
        scan_box(0, 10)
    with pytest.raises(ValueError):
        scan_box(10, 0)
    with pytest.raises(ValueError, match="^max_abs must be >= 1, got 0$"):
        scan_box(False, 10)
    # max_abs and limit are integers: a float is refused
    with pytest.raises(TypeError):
        scan_box(60, 5.0)
    with pytest.raises(TypeError):
        scan_box(5.0, 60)
    # the scan runs in this process; the keyword stays for callers that pass 1
    with pytest.raises(ValueError, match="^workers must be 1, got 2$"):
        scan_box(10, 10, workers=2)


def test_range_errors_write_values_past_the_int_to_str_limit():
    big = 10**5000
    got = f"got -{decimal_by_digits(big)}$"
    with pytest.raises(ValueError, match=f"^k_max must be >= 0, {got}"):
        verify_infinite_families(-big)
    with pytest.raises(ValueError, match=f"^p_max must be >= 1, {got}"):
        verify_cohomogeneity_one(-big)
    with pytest.raises(ValueError, match="^p_max must be >= 1, got 0$"):
        verify_cohomogeneity_one(False)
    with pytest.raises(ValueError, match=f"^max_abs must be >= 1, {got}"):
        scan_box(-big, 10)
    with pytest.raises(ValueError, match=f"^limit must be >= 1, {got}"):
        scan_box(10, -big)
    with pytest.raises(ValueError, match=f"^workers must be 1, {got}"):
        scan_box(10, 10, workers=-big)


# one instance of each value type the package returns
_VALUES = {
    "EschParams": lambda: E_RUNNING,
    "BazParams": lambda: BazParams((5, 1, 1, 3, 21)),
    "EmbeddingCertificate": lambda: make_certificate(E_RUNNING, 0),
    "WindowReport": lambda: window_scan(E_RUNNING),
    "SurveyRow": lambda: verify_known_counterexamples()[0],
    "ScanStats": lambda: ScanStats(3, 2, 1),
}


@pytest.mark.parametrize(("name", "make"), _VALUES.items(), ids=_VALUES)
def test_value_types_are_slotted_frozen_dataclasses(name, make):
    value = make()
    assert type(value).__name__ == name
    names = tuple(f.name for f in dataclasses.fields(value))
    assert not hasattr(value, "__dict__")
    assert tuple(type(value).__slots__) == names
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, names[0], getattr(value, names[0]))
    with pytest.raises((AttributeError, TypeError)):
        value.undeclared = 1
    for other in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), dataclasses.replace(value)):
        assert other == value
        assert hash(other) == hash(value)


@functools.cache
def _box_keys(max_abs):
    """The oracle's normal forms in the box, as sets of keys (a, b) per tail (b3, b2).

    The tails are those ``scan_box`` builds, -max_abs <= b3 <= b2 <= -1 with
    b2 + b3 >= -max_abs; a tail's set is empty when the box holds no free form
    of it.
    """
    keys = {(b3, b2): set() for b3 in range(-max_abs, 0) for b2 in range(max(b3, -max_abs - b3), 0)}
    for a, b in enumerate_normal_forms(max_abs):
        keys[b[2], b[1]].add((a, b))
    return keys


def test_enumerator_matches_normal_form_oracle():
    # the one-chain, tail-major enumerator of the scan kernel, kept as the
    # oracle for shards beyond the two-chain oracle's reach
    for max_abs in range(1, 31):
        for tail, want in _box_keys(max_abs).items():
            keys = list(normal_forms([tail], max_abs))
            assert len(keys) == len(set(keys)), (max_abs, tail)
            assert set(keys) == want, (max_abs, tail)


def test_every_normal_form_that_fits_the_box_has_its_mirror_in_it():
    # the box lemma behind the enumerator's b3 >= a1 - max_abs: a free
    # chain-1 form (b3 <= b2 <= -1) whose own entries fit has b3 > a1 - max_abs
    for max_abs in range(1, 31):
        fitting = 0
        for a1 in range(max_abs + 1):
            for a2 in range(a1 + 1):
                for b3 in range(-max_abs, 0):
                    for b2 in range(max(b3, a1 + a2 - max_abs - b3), 0):
                        if is_free_six_gcds(EschParams((a1, a2, 0), (a1 + a2 - b2 - b3, b2, b3))):
                            assert b3 > a1 - max_abs, (max_abs, a1, a2, b2, b3)
                            fitting += 1
        assert fitting > 0 or max_abs == 1


def _kernel_verdict(f, c):
    moduli = _moduli(*f.a, *f.b)
    return all(gcd(s + 2 * c, d) == 1 for s, d in zip(moduli[::2], moduli[1::2]))


def test_kernel_matches_certificates_on_every_window_in_box30():
    checked = 0
    for keys in _box_keys(30).values():
        for a, b in sorted(keys):
            f = EschParams(a, b)
            window = pc_shift_window(f)
            verdicts = [make_certificate(f, c).baz_free for c in window]
            assert [_kernel_verdict(f, c) for c in window] == verdicts, f
            first = next((c for c, ok in zip(window, verdicts) if ok), None)
            assert first_nonsingular_shift(f) == first, f
            checked += len(verdicts)
    assert checked == 50_305


def _per_form_singular(keys):
    """The old kernel: one EschParams and one first_nonsingular_shift per enumerated form."""
    return {(a, b) for a, b in keys if first_nonsingular_shift(EschParams(a, b)) is None}


def _check_shard(shard, keys):
    """``_scan_shard`` counts the forms of a one-tail shard's keys and reports their singular ones.

    Each once, in enumeration order: by a2, then a1.
    """
    count, singular = survey_mod._scan_shard(*shard)
    assert count == len(keys), shard
    assert singular == sorted(set(singular), key=lambda key: (key[0][1], key[0][0])), shard
    assert set(singular) == _per_form_singular(keys), shard
    return singular


def test_scan_box_matches_the_per_form_path_in_every_box_to_30():
    # each tail as its own shard, then the whole box
    for max_abs in range(1, 31):
        tails, singular = _box_keys(max_abs), set()
        for tail, keys in tails.items():
            singular.update(_check_shard(([tail], max_abs), keys))
        stats, rows = scan_box(max_abs, 10**6)
        assert stats.total == sum(map(len, tails.values())), max_abs
        assert {(row.esch.a, row.esch.b) for row in rows} == singular, max_abs
        assert stats.counterexamples == len(rows), max_abs
    # those boxes hold no counterexample, so also compare shards that do:
    # the tail of each of the first eight stored ones, in the smallest box
    # that holds it (row 9's tail holds 83 million forms, and
    # verify_known_counterexamples walks its window)
    for a, b, _window in KNOWN_COUNTEREXAMPLES[:8]:
        shard = ([(b[2], b[1])], a[0] - b[2])
        assert (a, b) in _check_shard(shard, list(normal_forms(*shard)))


def test_scan_shard_decides_rows_without_the_per_form_walk(monkeypatch):
    # the kernel decides each a1 row of box 30 by residue classes, in
    # enumeration order, and never walks one form's window
    tails = list(_box_keys(30))

    def walk(*args):
        raise AssertionError(f"_scan_shard walked a form's window: {args}")

    monkeypatch.setattr(survey_mod, "_first_nonsingular", walk)
    count, singular = survey_mod._scan_shard(tails, 30)
    forms = list(normal_forms(tails, 30))
    assert count == len(forms)
    assert singular == [(a, b) for a, b in forms if first_nonsingular_shift(EschParams(a, b)) is None]


def test_scan_shard_matches_the_per_form_path_on_long_rows():
    # seeded tails of boxes 120-200 whose a1 rows start over 60 bits long
    # (max_abs + b3 + 1 > 60 at a2 = 0), so rows and patterns span several
    # machine words, and the tail of box 200's counterexample
    # a=(103,2,0), b=(119,-7,-7), whose row at a2 = 2 holds it at bit 103
    rng = random.Random(2035)
    shards = [([(-7, -7)], 200)]
    while len(shards) < 21:
        max_abs = rng.randrange(120, 201)
        b3 = rng.randrange(60 - max_abs, 0)
        shards.append(([(b3, rng.randrange(max(b3, -max_abs - b3), 0))], max_abs))
    found = []
    for shard in shards:
        found += _check_shard(shard, list(normal_forms(*shard)))
    assert found == [((103, 2, 0), (119, -7, -7))]


def test_gcd_patterns_hold_the_shared_factors_of_each_k():
    for max_abs in [*range(1, 61), 100, 200]:  # 200 is the CLI's cap
        g = survey_mod._gcd_patterns(max_abs)
        assert len(g) == max_abs + 1 and g[0] == g[1] == 0, max_abs
        for k in range(2, max_abs + 1):
            bits = {j for j in range(g[k].bit_length()) if g[k] >> j & 1}
            want = {j for j in range(3 * max_abs + 1) if gcd(j - max_abs, k) > 1}
            # every bit up to 3*max_abs is right, and the few past it are too
            assert want <= bits, (max_abs, k)
            assert all(gcd(j - max_abs, k) > 1 for j in bits), (max_abs, k)


def test_scan_shard_checks_each_enumerated_form():
    shard = ([(-11, -2)], 15)  # holds the running example a=(2, 0, 0), b=(15, -2, -11)
    assert survey_mod._scan_shard(*shard)[0] > 0
    # out-of-domain tails: (-1, -3) has b2 < b3; (-1, 0) has b2 = 0, and its
    # first form an empty window too (a form in the chain never has one);
    # (-3, -3) lies outside box 5 (b2 + b3 < -5), so its last a2 is -1
    for shard, tail in ((([(-1, -3)], 5), "(-1, -3, 0)"), (([(-1, 0)], 5), "(-1, 0, 0)"),
                        (([(-3, -3)], 5), "(-3, -3, -1)")):
        message = f"tail (b3, b2, a2) = {tail} breaks the normal-form chain or has an empty shift window"
        with pytest.raises(InternalError, match=re.escape(message)):
            survey_mod._scan_shard(*shard)


def test_checking_each_tails_first_and_last_a2_covers_its_rows(monkeypatch):
    # the kernel checks the window and the chain at a tail's first and last
    # a2 only; every row between them must pass too, on every tail of boxes 1-60
    for max_abs in range(1, 61):
        for b3 in range(-max_abs, 0):
            for b2 in range(max(b3, -max_abs - b3), 0):
                for a2 in range(max_abs + b2 + b3 + 1):
                    assert _window(a2, 0, b2, b3), (max_abs, b3, b2, a2)
                    assert _in_chain(a2, a2, 0, 2 * a2 - b2 - b3, b2, b3), (max_abs, b3, b2, a2)
    # and it does check both ends of every tail of the box
    checked = []

    def recorded(*entries):
        checked.append(entries)
        return _in_chain(*entries)

    monkeypatch.setattr(survey_mod, "_in_chain", recorded)
    tails = list(_box_keys(30))
    survey_mod._scan_shard(tails, 30)
    ends = [(a2, a2, 0, 2 * a2 - b2 - b3, b2, b3) for b3, b2 in tails for a2 in (0, 30 + b2 + b3)]
    assert checked == ends


def test_scan_shard_matches_the_per_form_path_at_the_ends_of_x_in_box200():
    # the windows of tail (-1, -1), whose 199 rows have the longest windows
    # (12,232 forms), and of tail (-101, -99), whose one row (a2 = 0) holds
    # 60 forms, run X = a2 + 1 + 2c up to 199, the last entry of the tail's
    # list by X; no row of either is left past X = 21, so that entry is read
    # only in small boxes, whose windows can be one shift long (box 2: X = 1)
    for tail in ((-1, -1), (-101, -99)):
        shard = ([tail], 200)
        _check_shard(shard, list(normal_forms(*shard)))


def test_kernel_matches_certificates_off_the_window():
    rng = random.Random(3001)
    forms = []
    while len(forms) < 100:
        f = pc_normal_form(random_pc_esch(rng))
        if is_free(f):
            forms.append(f)
    for f in forms:
        for c in range(-200, 201):
            assert _kernel_verdict(f, c) == make_certificate(f, c).baz_free, (f, c)


def test_first_nonsingular_shift_on_stored_counterexamples():
    for a, b, _window in KNOWN_COUNTEREXAMPLES:
        assert first_nonsingular_shift(EschParams(a, b)) is None
    # the running example's window 0..5 starts with two singular shifts
    assert first_nonsingular_shift(EschParams((2, 0, 0), (15, -2, -11))) == 2


if __name__ == "__main__":
    SCAN_GOLDEN.parent.mkdir(exist_ok=True)
    SCAN_GOLDEN.write_text(json.dumps(
        {str(m): _scan_digest(scan_box(m, 10**6)) for m in SCAN_BOXES}, indent=1
    ) + "\n")
