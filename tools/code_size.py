"""Print the size of Python source files: lines, code tokens and bytes.

Code tokens are the ``tokenize`` tokens of a file without comments,
docstrings and layout (NL, NEWLINE, INDENT, DEDENT, ENCODING, ENDMARKER),
so reformatting and comment edits do not move the count.  An f-string is
one token, as Python 3.11 tokenizes it: from 3.12 (PEP 701) everything from
an FSTRING_START to its matching FSTRING_END counts once, so every version
from 3.10 on prints the same counts.  Bytes are the file's size on disk,
all of which a process compiles when it has no bytecode cache.  With no
arguments it counts ``src/eschbaz/*.py``:

    python tools/code_size.py [FILE ...]
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}
# None before Python 3.12: earlier tokenizers yield each f-string as one STRING
FSTRING_START = getattr(tokenize, "FSTRING_START", None)
FSTRING_END = getattr(tokenize, "FSTRING_END", None)


def docstring_starts(source: str) -> set[tuple[int, int]]:
    """(row, col) of each module, class and function docstring."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_tokens(source: str) -> int:
    docstrings = docstring_starts(source)
    lines = iter(source.splitlines(keepends=True))
    count = depth = 0  # depth: f-strings open at this token
    for tok in tokenize.generate_tokens(lambda: next(lines, "")):
        if tok.type == FSTRING_START:
            depth += 1
            count += depth == 1
        elif tok.type == FSTRING_END:
            depth -= 1
        elif not depth and tok.type not in LAYOUT:
            count += not (tok.type == tokenize.STRING and tok.start in docstrings)
    return count


def main(argv: list[str]) -> None:
    root = Path(__file__).resolve().parents[1]
    paths = [Path(a) for a in argv] or sorted(root.glob("src/eschbaz/*.py"))
    total_lines = total_tokens = total_bytes = 0
    for path in paths:
        data = path.read_bytes()
        source = data.decode()
        lines, tokens = len(source.splitlines()), code_tokens(source)
        total_lines += lines
        total_tokens += tokens
        total_bytes += len(data)
        print(f"{lines:>7} {tokens:>7} {len(data):>7}  "
              f"{path.relative_to(root) if path.is_relative_to(root) else path}")
    print(f"{total_lines:>7} {total_tokens:>7} {total_bytes:>7}  total (lines, code tokens, bytes)")


if __name__ == "__main__":
    main(sys.argv[1:])
