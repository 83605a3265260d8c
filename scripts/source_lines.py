"""Count the source lines of the package's modules, without comments or docstrings.

A line counts when it holds a token that is neither a comment nor a module,
class or function docstring; blank lines and lines holding only those do not.
Prints one `<count> <module>` line per module and the total.

Usage, from the repository root:  python3 scripts/source_lines.py [DIR]
(DIR defaults to src/ighit.)
"""

import ast
import io
import pathlib
import sys
import tokenize

ROOT = pathlib.Path(__file__).resolve().parents[1]

# tokens that hold no code of their own
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_starts(text: str) -> set:
    """(line, column) of every module, class and function docstring."""
    starts = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def source_lines(text: str) -> int:
    docs = docstring_starts(text)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in LAYOUT or (tok.type == tokenize.STRING and tok.start in docs):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv) -> int:
    directory = pathlib.Path(argv[0]) if argv else ROOT / "src" / "ighit"
    total = 0
    for path in sorted(directory.glob("*.py")):
        count = source_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path.name}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
