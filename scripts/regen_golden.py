"""Regenerate the golden CLI outputs under tests/golden/.

Runs every case of `tests/test_golden.py` on the source tree of this checkout,
writes its output files into tests/golden/ and prints one line per file: `new`,
`unchanged`, `moved <largest relative move of a number>` or `text changed`.
A change that moves a golden file names it, with its move, in CHANGES.md.

Usage, from the repository root:  python3 scripts/regen_golden.py
"""

import contextlib
import io
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_golden import CASES, GOLDEN_DIR, max_number_move, produce  # noqa: E402


def main() -> int:
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CASES):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                files = produce(name, tmp)
            for file_name, text in files.items():
                path = GOLDEN_DIR / file_name
                if not path.exists():
                    status = "new"
                else:
                    move = max_number_move(path.read_text(), text)
                    status = ("text changed" if move is None else
                              "unchanged" if move == 0.0 else f"moved {move:.3e}")
                print(f"{file_name}: {status}")
                path.write_text(text, encoding="utf-8", newline="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
