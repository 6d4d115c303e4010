"""Checks on the repository's own files: the package source, README.md, pyproject.toml and tools/."""

import argparse
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


def _names_used(path):
    """Every name and attribute name the code of path reads, docstrings and comments aside."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, (ast.Name, ast.Attribute))}


def test_every_exported_function_has_a_caller_outside_its_module():
    # a function the package exports but no other module uses exists only for its tests; the
    # benchmark's workloads count as users and classes are exempt.  Any name read counts, a
    # local of the same name too, so the check can miss an unused function but never flags a used one
    package = ROOT / "src" / "eschbaz"
    init = ast.parse((package / "__init__.py").read_text())
    exported = [(alias.name, node.module) for node in init.body if isinstance(node, ast.ImportFrom)
                for alias in node.names if not isinstance(getattr(eschbaz, alias.name), type)]
    assert len(exported) > 20
    used = {path.stem: _names_used(path) for path in package.glob("*.py") if path.name != "__init__.py"}
    workloads = _names_used(ROOT / "bench" / "workloads.py")
    uncalled = [name for name, module in exported
                if name not in workloads and not any(name in names for other, names in used.items() if other != module)]
    assert uncalled == []


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
    metrics = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
               {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
               {"name": "ok_frac", "unit": "ratio", "better": "higher", "bound": 0.01},
               {"name": "score", "unit": "count", "better": "higher", "bound": 0.25},
               {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
               {"name": "hits", "unit": "count", "better": "higher", "bound": 0.1},
               {"name": "bimodal_s", "unit": "s", "better": "lower", "bound": 0.25},
               {"name": "apart_s", "unit": "s", "better": "lower", "bound": 0.25}]
    parent = [{"wall_s": 1 + i / 10, "peak_rss_mb": 30 + i / 100, "ok_frac": 1.0, "score": 5,
               "setup_s": 0.2, "hits": 10, "bimodal_s": 0.1 + 0.1 * (i % 2), "apart_s": 0.1 + 0.1 * (i % 2)}
              for i in range(10)]
    change = [{"wall_s": 0.5 + i / 10, "peak_rss_mb": 20.0, "ok_frac": 1.0, "score": 5 + (i > 0),
               "setup_s": 0.26, "hits": 9, "bimodal_s": 0.19, "apart_s": 0.04} for i in range(9)]
    change.append({"wall_s": 2.5, "peak_rss_mb": 20.0, "ok_frac": 1.0, "score": 6, "setup_s": 0.24, "hits": 9,
                   "bimodal_s": 0.19, "apart_s": 0.09})
    wall, rss, ok, score, setup, hits, bimodal, apart = pairs.summarize(metrics, parent, change)
    # parent quartiles 1.175, 1.45, 1.725 (exclusive method); the change wins
    # 9 pairs of 10, but its median 0.95 is 0.5 below, inside the IQR 0.55
    assert wall["parent"] == pytest.approx((1.175, 1.45, 1.725))
    assert wall["change"][1] == pytest.approx(0.95)
    assert (wall["change_wins"], wall["parent_wins"], wall["holds"]) == (9, 1, False)
    assert (rss["change_wins"], rss["parent_wins"], rss["holds"]) == (10, 0, True)
    assert (ok["change_wins"], ok["parent_wins"], ok["holds"]) == (0, 0, False)  # ties count for neither side
    assert (score["change_wins"], score["parent_wins"], score["holds"]) == (9, 0, True)  # higher is better here
    # the bound verdict: CHANGE's median may be worse than PARENT's by at most
    # bound times PARENT's median, in the direction of the metric's better field
    assert (wall["worse_by"], wall["within"]) == (pytest.approx(-0.5 / 1.45), True)
    assert (ok["worse_by"], ok["within"]) == (0.0, True)
    assert (score["worse_by"], score["within"]) == (pytest.approx(-0.2), True)
    assert (setup["worse_by"], setup["within"]) == (pytest.approx(0.3), False)  # 0.2 -> 0.26 s, bound 25%
    assert (hits["worse_by"], hits["within"]) == (pytest.approx(0.1), True)  # 10 -> 9, at the 10% bound
    # a parent spread wider than the bound leaves the bound verdict unresolved, unless
    # every CHANGE run is better than every PARENT run: wall_s's IQR is 0.55 / 1.45 = 38%
    # of its median, and bimodal_s's (0.1 and 0.2 s runs) 0.1 / 0.15 = 67%
    assert [row["unresolved"] for row in (wall, rss, ok, score, setup, hits)] == [True] + [False] * 5
    assert (bimodal["spread"], bimodal["worse_by"]) == (pytest.approx(2 / 3), pytest.approx(0.04 / 0.15))
    assert (bimodal["within"], bimodal["unresolved"]) == (False, True)
    assert (apart["spread"], apart["within"], apart["unresolved"]) == (pytest.approx(2 / 3), True, False)
    lines = pairs.report([wall, rss, setup, bimodal, apart], 10)
    assert lines[0] == ("wall_s (s): parent 1.45 [1.175, 1.725] -> change 0.95 [0.675, 1.225]; "
                        "change wins 9/10, parent wins 1/10; gain does not hold; "
                        "median worse by -34.5%, unresolved against the 25% bound (parent IQR 38% of its median)")
    assert lines[1].endswith("change wins 10/10, parent wins 0/10; gain holds; "
                             "median worse by -33.4%, within the 10% bound")
    assert lines[2].endswith("gain does not hold; median worse by +30.0%, outside the 25% bound")
    assert lines[3].endswith("median worse by +26.7%, unresolved against the 25% bound (parent IQR 67% of its median)")
    assert lines[4].endswith("change wins 10/10, parent wins 0/10; gain holds; "
                             "median worse by -73.3%, within the 25% bound")


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


def _load_ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    return ab


def test_ab_summary_on_fixed_numbers():
    ab = _load_ab()
    parent = [1.0, 2.0, 1.0, 1.0, 4.0]
    change = [0.9, 1.6, 1.0, 1.1, 2.0]  # ratios 0.9, 0.8, 1.0, 1.1, 0.5
    summary = ab.summarize(parent, change)
    # sorted ratios 0.5, 0.8, 0.9, 1.0, 1.1: exclusive quartiles 0.65 and 1.05
    assert summary["median"] == pytest.approx(0.9)
    assert summary["quartiles"] == pytest.approx((0.65, 1.05))
    assert (summary["rounds"], summary["change_wins"], summary["parent_wins"]) == (5, 3, 1)  # a tie counts for neither
    assert (summary["parent_s"], summary["change_s"]) == (1.0, 1.1)
    assert ab.report("certify", summary) == (
        "certify: change/parent 0.900 (quartiles 0.650-1.050) over 5 rounds; change faster in 3/5, "
        "parent faster in 1/5; IQR not below 1; median process time parent 1.000 s, change 1.100 s")
    assert "; IQR below 1; " in ab.report("certify", ab.summarize([1.0, 1.0, 1.0], [0.9, 0.8, 0.95]))


class _FakeWorkload:
    """Two ops whose results are the side's answers; a check fails on a negative result."""

    calls: list = []

    def __init__(self, label, answers):
        self.label, self.answers, self.inputs = label, answers, [0, 1]

    def warm_up(self):
        pass

    def run(self, inp):
        self.calls.append(self.label)
        return self.answers[inp]

    def check(self, inp, result):
        return argparse.Namespace(failed=int(result < 0), problems=[f"op {inp} is negative"] if result < 0 else [])


@pytest.mark.parametrize("change_answers, code, message", [
    ((1, 2), 0, "change faster in"),
    ((1, 3), 1, "op 1: the two sides' results differ"),
    ((1, -2), 1, "change op 1: op 1 is negative"),
])
def test_ab_alternates_sides_and_fails_only_on_results(monkeypatch, capsys, change_answers, code, message):
    ab = _load_ab()
    answers = {"parent": (1, 2), "change": change_answers}
    monkeypatch.setattr(ab, "extract", lambda revision, directory: revision)
    monkeypatch.setattr(ab, "load", lambda label, src: argparse.Namespace(WORKLOADS={
        "w": lambda seed, seconds: _FakeWorkload(src, answers[src])}))
    _FakeWorkload.calls = []
    assert ab.main(["parent", "change", "--workload", "w", "--rounds", "3"]) == code
    out = capsys.readouterr().out
    assert message in out
    if code == 0:
        # round 0 (untimed) and round 2 run the parent first, rounds 1 and 3 the change
        assert _FakeWorkload.calls == ["parent"] * 2 + ["change"] * 4 + ["parent"] * 4 + ["change"] * 4 + ["parent"] * 2
        assert sum(line.startswith("round ") for line in out.splitlines()) == 3
    else:
        assert _FakeWorkload.calls == ["parent"] * 2 + ["change"] * 2  # stops after the untimed round


def test_readme_cli_table_lists_the_parser_subcommands_and_caps():
    from eschbaz import cli

    (subparsers,) = [a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)]
    section = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([a-z0-9-]+)[^`]*` \| (.*) \|$", section, re.M)
    assert [command for command, _ in rows] == list(subparsers.choices)
    stated = {command: [int(n) for pair in re.findall(r"<= (\d+)`|at most (\d+) shifts", does)
                        for n in pair if n]
              for command, does in rows}
    declared = {command: [bounds[1] for bounds in subparser.get_default("integers").values()
                          if bounds and bounds[1] is not None]
                for command, subparser in subparsers.choices.items()}
    declared["window"] = [cli.WINDOW_LIMIT]
    assert stated == declared
    assert sum(map(len, stated.values())) == 6
