"""Checks on the repository's own files: the package source, pyproject.toml and tools/."""

import ast
import importlib.util
import json
import re
from pathlib import Path

import pytest

import eschbaz

ROOT = Path(__file__).resolve().parents[1]


def test_package_has_no_assert():
    # an assert vanishes under python -O; the package's invariants raise InternalError instead
    sources = sorted((ROOT / "src" / "eschbaz").glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_pyproject_version_is_the_package_version():
    # a regex, not tomllib, which Python 3.10 lacks
    text = (ROOT / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    versions = re.findall(r'^version = "([^"]*)"$', project, re.M)
    assert versions == [eschbaz.__version__]


CODE_SIZE_SNIPPET = '''"""Module doc."""
# a comment
def f(x):
    """Doc."""
    return f"{x!r} and {f'{x}'}"  # trailing
'''


def _load_code_size():
    spec = importlib.util.spec_from_file_location("code_size", ROOT / "tools" / "code_size.py")
    code_size = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_size)
    return code_size


def test_code_tokens_count_code_only():
    code_size = _load_code_size()
    # def f ( x ) : return and the nested f-string, which counts once
    assert code_size.code_tokens(CODE_SIZE_SNIPPET) == 8
    commented = CODE_SIZE_SNIPPET.replace("def f", "# another comment\ndef f")
    longer_doc = CODE_SIZE_SNIPPET.replace('"""Doc."""', '"""Doc.\n\n    More.\n    """')
    assert commented != CODE_SIZE_SNIPPET and longer_doc != CODE_SIZE_SNIPPET
    assert code_size.code_tokens(commented) == code_size.code_tokens(longer_doc) == 8


def test_code_size_prints_lines_tokens_and_bytes(tmp_path, capsys):
    code_size = _load_code_size()
    path = tmp_path / "snippet.py"
    path.write_bytes(CODE_SIZE_SNIPPET.encode())  # 100 ASCII characters, newlines untranslated
    code_size.main([str(path)])
    assert [line.split() for line in capsys.readouterr().out.splitlines()] == [
        ["5", "8", "100", str(path)],
        ["5", "8", "100", "total", "(lines,", "code", "tokens,", "bytes)"],
    ]


def _load_pairs():
    spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
    pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pairs)
    return pairs


def test_pairs_summary_on_fixed_numbers():
    pairs = _load_pairs()
    metrics = [{"name": "wall_s", "unit": "s", "better": "lower"},
               {"name": "peak_rss_mb", "unit": "MB", "better": "lower"},
               {"name": "ok_frac", "unit": "ratio", "better": "higher"},
               {"name": "score", "unit": "count", "better": "higher"}]
    parent = [{"wall_s": 1 + i / 10, "peak_rss_mb": 30 + i / 100, "ok_frac": 1.0, "score": 5} for i in range(10)]
    change = [{"wall_s": 0.5 + i / 10, "peak_rss_mb": 20.0, "ok_frac": 1.0, "score": 5 + (i > 0)} for i in range(9)]
    change.append({"wall_s": 2.5, "peak_rss_mb": 20.0, "ok_frac": 1.0, "score": 6})
    wall, rss, ok, score = pairs.summarize(metrics, parent, change)
    # parent quartiles 1.175, 1.45, 1.725 (exclusive method); the change wins
    # 9 pairs of 10, but its median 0.95 is 0.5 below, inside the IQR 0.55
    assert wall["parent"] == pytest.approx((1.175, 1.45, 1.725))
    assert wall["change"][1] == pytest.approx(0.95)
    assert (wall["change_wins"], wall["parent_wins"], wall["holds"]) == (9, 1, False)
    assert (rss["change_wins"], rss["parent_wins"], rss["holds"]) == (10, 0, True)
    assert (ok["change_wins"], ok["parent_wins"], ok["holds"]) == (0, 0, False)  # ties count for neither side
    assert (score["change_wins"], score["parent_wins"], score["holds"]) == (9, 0, True)  # higher is better here
    lines = pairs.report([wall, rss], 10)
    assert lines[0] == ("wall_s (s): parent 1.45 [1.175, 1.725] -> change 0.95 [0.675, 1.225]; "
                        "change wins 9/10, parent wins 1/10; gain does not hold")
    assert lines[1].endswith("change wins 10/10, parent wins 0/10; gain holds")


def test_pairs_alternates_sides_and_fails_on_an_incorrect_run(monkeypatch, capsys):
    pairs = _load_pairs()
    calls = []

    def fake_run(directory, workload, seed, seconds):
        assert seconds == json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
        calls.append((directory, seed))
        wall = 1.0 if directory == "old" else 0.5
        metrics = {"wall_s": wall + seed / 100, "setup_s": 0.2, "peak_rss_mb": 25.0, "ok_frac": 1.0}
        return {"correct": (directory, seed) != ("new", 13),
                "metrics": {name: {"value": value} for name, value in metrics.items()}}

    monkeypatch.setattr(pairs, "run", fake_run)
    assert pairs.main(["old", "new", "--workload", "certify", "--pairs", "3", "--seed", "10"]) == 0
    assert calls == [("old", 10), ("new", 10), ("new", 11), ("old", 11), ("old", 12), ("new", 12)]
    out = capsys.readouterr().out
    assert "wall_s (s): parent 1.11 [1.1, 1.12] -> change 0.61 [0.6, 0.62]; " \
           "change wins 3/3, parent wins 0/3; gain holds" in out
    calls.clear()
    assert pairs.main(["old", "new", "--workload", "certify", "--pairs", "4", "--seed", "10"]) == 1
    assert len(calls) == 8 and calls[-2:] == [("new", 13), ("old", 13)]
    assert "runs not correct:\nchange seed 13:" in capsys.readouterr().out
