"""Checks on the repository's own files: the package source, pyproject.toml and tools/."""

import ast
import importlib.util
import re
from pathlib import Path

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
