"""Survey jobs and the box scan.

The box scan is also pinned by one sha256 of ``repr(scan_box(m, 10**6))``
per box m in ``data/scan_golden.json``; after an intended change to the
scan's output, rewrite the file with

    PYTHONPATH=src python tests/test_survey.py
"""

import dataclasses
import hashlib
import json
import os
import random
from math import gcd
from pathlib import Path

import pytest

from conftest import random_pc_esch
from oracles import enumerate_normal_forms, row_from_report
from eschbaz import (
    BazParams,
    EschParams,
    VerificationFailure,
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
from eschbaz.embedding import _singularity_moduli, first_nonsingular_shift
import eschbaz.survey as survey_mod
from eschbaz.survey import (
    KNOWN_COUNTEREXAMPLES,
    ScanStats,
    SurveyRow,
    _normal_forms,
    _pool_size,
)

E_RUNNING = EschParams((2, 0, 0), (15, -2, -11))
SCAN_GOLDEN = Path(__file__).with_name("data") / "scan_golden.json"
SCAN_BOXES = (10, 24, 40, 60, 100)


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
        assert row.is_counterexample
        assert not any(row.verdicts)
        assert len(row.verdicts) == len(window)
        assert row.h4 % 2 == 1


def test_verify_infinite_families_matches_stored_rows_at_k0():
    rows = verify_infinite_families(0)
    assert len(rows) == 2
    table = verify_known_counterexamples()
    assert rows[0] == table[0]  # variant A, k=0 is the first stored row
    assert rows[1] == table[8]  # variant B, k=0 is the last stored row


def test_verify_infinite_families_small():
    rows = verify_infinite_families(3)
    assert len(rows) == 8
    assert all(r.is_counterexample for r in rows)
    assert all(is_free(r.esch) and is_pc_metric(r.esch) for r in rows)
    with pytest.raises(ValueError):
        verify_infinite_families(-1)


def test_verification_jobs_match_the_certificate_path():
    assert verify_known_counterexamples() == [
        row_from_report(window_scan(EschParams(a, b))) for a, b, _ in KNOWN_COUNTEREXAMPLES
    ]
    assert verify_infinite_families(30) == [
        row_from_report(window_scan(family_cohomogeneity_two(variant, k)))
        for variant in ("A", "B") for k in range(31)
    ]


def test_embeddable_stored_row_names_its_nonsingular_shifts(monkeypatch):
    report = window_scan(E_RUNNING)
    good = [cert.shift for cert in report.certificates if cert.baz_free]
    assert good == [2, 5]
    monkeypatch.setattr(
        survey_mod, "KNOWN_COUNTEREXAMPLES",
        KNOWN_COUNTEREXAMPLES + ((E_RUNNING.a, E_RUNNING.b, report.window),),
    )
    with pytest.raises(VerificationFailure) as info:
        verify_known_counterexamples()
    assert str(info.value) == f"row 10: {E_RUNNING} embeds after all (non-singular at c in {good})"
    assert info.value.details["actual"] == good


def test_embeddable_family_member_reports_its_verdicts(monkeypatch):
    def family(variant, k):
        return E_RUNNING if (variant, k) == ("B", 1) else family_cohomogeneity_two(variant, k)

    monkeypatch.setattr(survey_mod, "family_cohomogeneity_two", family)
    with pytest.raises(VerificationFailure) as info:
        verify_infinite_families(2)
    assert str(info.value) == f"family B, k=1: {E_RUNNING} embeds after all"
    assert info.value.details["actual"] == row_from_report(window_scan(E_RUNNING)).verdicts


def test_stored_row_that_is_not_free_fails(monkeypatch):
    e = EschParams((1, 0, 0), (3, 1, -3))
    rows = KNOWN_COUNTEREXAMPLES + ((e.a, e.b, range(0, 1)),)
    monkeypatch.setattr(survey_mod, "KNOWN_COUNTEREXAMPLES", rows)
    with pytest.raises(VerificationFailure) as info:
        verify_known_counterexamples()
    assert str(info.value) == "row 10: a=(1, 0, 0) b=(3, 1, -3) is not free"
    assert info.value.details == {"row": 10, "expected": "free", "actual": "not free"}


def test_stored_row_that_is_not_positively_curved_fails(monkeypatch):
    e = EschParams((0, 2, 2), (0, 1, 3))
    assert is_free(e)
    rows = KNOWN_COUNTEREXAMPLES + ((e.a, e.b, range(0, 1)),)
    monkeypatch.setattr(survey_mod, "KNOWN_COUNTEREXAMPLES", rows)
    with pytest.raises(VerificationFailure) as info:
        verify_known_counterexamples()
    assert str(info.value) == "row 10: a=(0, 2, 2) b=(0, 1, 3) is not positively curved"
    assert info.value.details == {
        "row": 10, "expected": "positively curved", "actual": "not positively curved",
    }


def test_family_member_that_is_not_free_fails(monkeypatch):
    def family(variant, k):
        if (variant, k) == ("A", 1):
            return EschParams((1, 0, 0), (3, 1, -3))
        return family_cohomogeneity_two(variant, k)

    monkeypatch.setattr(survey_mod, "family_cohomogeneity_two", family)
    with pytest.raises(VerificationFailure) as info:
        verify_infinite_families(2)
    assert str(info.value) == "family A, k=1: a=(1, 0, 0) b=(3, 1, -3) is not free and positively curved"
    assert info.value.details == {"variant": "A", "k": 1}


def test_cohomogeneity_one_candidate_mismatch_fails(monkeypatch):
    def family(p):
        return EschParams((p, 1, 1), (p + 2, 1, -1))

    monkeypatch.setattr(survey_mod, "family_cohomogeneity_one", family)
    with pytest.raises(VerificationFailure) as info:
        verify_cohomogeneity_one(3)
    assert str(info.value) == "p=1: candidate q=(1, 1, 1, -1, 3) != q=(1, 1, 1, 1, 1)"
    assert info.value.details == {
        "p": 1, "expected": BazParams((1, 1, 1, 1, 1)), "actual": BazParams((1, 1, 1, -1, 3)),
    }


def test_cohomogeneity_one_singular_certificate_fails(monkeypatch):
    def singular(e, c):
        return dataclasses.replace(make_certificate(e, c), baz_free=False)

    monkeypatch.setattr(survey_mod, "make_certificate", singular)
    with pytest.raises(VerificationFailure) as info:
        verify_cohomogeneity_one(3)
    assert str(info.value) == "p=1: candidate q=(1, 1, 1, 1, 1) free=False pc=True"
    assert info.value.details == {
        "p": 1, "expected": "free and positively curved",
        "actual": singular(EschParams((1, 1, 1), (3, 0, 0)), -1),
    }


def test_verify_cohomogeneity_one():
    summary = verify_cohomogeneity_one(10)
    assert summary.p_max == 10
    assert len(summary.certificates) == 10
    for p, cert in enumerate(summary.certificates, start=1):
        assert cert.baz == BazParams((2 * p - 1, 1, 1, 1, 1))
        assert cert.shift == -1
        assert cert.baz_free and cert.baz_pc
    assert summary.notes
    assert "-1 <= c <= 0" in summary.notes[0]
    with pytest.raises(ValueError):
        verify_cohomogeneity_one(0)


@pytest.fixture(scope="module")
def box60():
    return scan_box(60, 10**6)


def _scan_digest(outcome):
    return hashlib.sha256(repr(outcome).encode()).hexdigest()


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("max_abs", SCAN_BOXES)
def test_scan_box_matches_golden_digest(max_abs, workers, box60):
    if (max_abs, workers) == (60, 1):
        outcome = box60
    else:
        outcome = scan_box(max_abs, 10**6, workers=workers)
    assert _scan_digest(outcome) == json.loads(SCAN_GOLDEN.read_text())[str(max_abs)]


def test_scan_box_small_is_empty():
    stats, rows = scan_box(5, 10)
    assert rows == []
    assert stats.counterexamples == 0
    assert stats.total == stats.embeddable
    assert stats.total > 0


def test_scan_box_rows_are_counterexamples_and_sorted(box60):
    stats, rows = box60
    assert stats.total >= stats.embeddable + stats.counterexamples
    assert stats.total == stats.embeddable + stats.counterexamples
    assert any(r.esch == EschParams((39, 0, 0), (55, -3, -13)) for r in rows)
    assert all(r.is_counterexample for r in rows)
    assert [r.h4 for r in rows] == sorted(r.h4 for r in rows)
    # each row equals the one the full-certificate path builds
    assert all(r == row_from_report(window_scan(r.esch)) for r in rows)


def test_scan_box_deterministic_across_workers():
    base = scan_box(24, 50)
    assert base == scan_box(24, 50, workers=2)
    # repeated single-worker runs are bit-identical too
    assert base == scan_box(24, 50)


def test_scan_box_counts_each_space_once(box60):
    # a=(39,0,0), b=(55,-3,-13) also enters the box through its mirrored
    # canonical form a=(39,39,0), b=(-16,52,42); the scan must not report it
    # (or count it) twice
    stats, rows = box60
    hits = [r for r in rows if r.esch == EschParams((39, 0, 0), (55, -3, -13))]
    assert len(hits) == 1


def test_scan_box_validates_arguments():
    with pytest.raises(ValueError):
        scan_box(0, 10)
    with pytest.raises(ValueError):
        scan_box(10, 0)
    with pytest.raises(ValueError):
        scan_box(10, 10, workers=0)


def test_pool_size_is_bounded():
    cores = os.cpu_count() or 1
    assert _pool_size(10**6, 10**9) == cores
    assert _pool_size(8, 3) == min(3, cores)
    assert _pool_size(1, 10**9) == 1


def _box_keys(max_abs):
    apairs = [(a1, a2) for a1 in range(max_abs + 1) for a2 in range(a1 + 1)]
    return list(_normal_forms(apairs, max_abs))


def test_enumerator_matches_normal_form_oracle():
    for max_abs in range(1, 31):
        keys = _box_keys(max_abs)
        assert len(keys) == len(set(keys)), max_abs
        assert set(keys) == enumerate_normal_forms(max_abs), max_abs


def test_scan_box_with_fewer_pairs_than_shards():
    # boxes 1 and 2 have 3 and 6 (a1, a2) pairs, fewer than the 8 shards
    # of a 2-process pool, so there is one shard per pair; boxes 3 and 5
    # (10 and 21 pairs) cut shards of one to three pairs; box 1 holds no space
    assert scan_box(1, 10) == (ScanStats(total=0, embeddable=0, counterexamples=0), [])
    for max_abs in (1, 2, 3, 5):
        assert scan_box(max_abs, 10, workers=2) == scan_box(max_abs, 10), max_abs


def _kernel_verdict(f, c):
    return all(gcd(s + 2 * c, d) == 1 for s, d in _singularity_moduli(f))


def test_kernel_matches_certificates_on_every_window_in_box30():
    checked = 0
    for a, b in _box_keys(30):
        f = EschParams(a, b)
        window = pc_shift_window(f)
        verdicts = [make_certificate(f, c).baz_free for c in window]
        assert [_kernel_verdict(f, c) for c in window] == verdicts, f
        first = next((c for c, ok in zip(window, verdicts) if ok), None)
        assert first_nonsingular_shift(f) == first, f
        checked += len(verdicts)
    assert checked == 50_305


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


def test_verification_failure_is_structured():
    try:
        raise VerificationFailure("row 3: boom", row=3, expected=1, actual=2)
    except VerificationFailure as exc:
        assert exc.details == {"row": 3, "expected": 1, "actual": 2}


def test_survey_row_invariant():
    row = SurveyRow(
        esch=EschParams((39, 0, 0), (55, -3, -13)),
        window=range(0, 8),
        verdicts=(False,) * 8,
        is_counterexample=True,
        h4=841,
    )
    assert row.is_counterexample == (len(row.window) > 0 and not any(row.verdicts))


if __name__ == "__main__":
    SCAN_GOLDEN.parent.mkdir(exist_ok=True)
    SCAN_GOLDEN.write_text(json.dumps(
        {str(m): _scan_digest(scan_box(m, 10**6)) for m in SCAN_BOXES}, indent=1
    ) + "\n")
