"""Golden JSON outputs of the CLI.

Each case runs one command at its documented flags and compares the JSON it
writes with the file of the same name under tests/golden/: the text must
match exactly, except that numbers may differ by at most `REL_TOL` relative.
`scripts/regen_golden.py` rewrites the files and reports every file that
moved, and by how much.
"""

import math
import pathlib
import re

import pytest

from ighit.cli import main

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
REL_TOL = 1e-12

# golden file name -> command line; each writes its JSON to the path given by --out
CASES = {
    **{f"pde_{pde.replace('-', '_')}.json": ["pde-check", "--pde", pde]
       for pde in ("hitting", "ig", "ts2", "ts3", "subordinated", "frac-hitting",
                   "frac-ig", "frac-subordinated", "pseudo-lt")},
    "pde_hitting_literal.json": ["pde-check", "--pde", "hitting", "--mode", "literal"],
    "pde_ts3_flipped.json": ["pde-check", "--pde", "ts3", "--sign", "flipped"],
    "pde_pseudo_lt_numeric.json": ["pde-check", "--pde", "pseudo-lt", "--source", "numeric"],
    "verification.json": ["verify"],
}

_NUMBER = re.compile(r"-?(?:\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|Infinity)|NaN")


def produce(name: str, out_path) -> str:
    """Run the case `name`, writing its JSON to out_path, and return the text."""
    code = main(CASES[name] + ["--out", str(out_path)])
    if code != 0:
        raise RuntimeError(f"{name}: exit {code}")
    return pathlib.Path(out_path).read_text()


def max_number_move(expected: str, actual: str) -> float | None:
    """Largest relative difference between corresponding numbers of the two
    texts, or None when the text between the numbers differs."""
    if _NUMBER.split(expected) != _NUMBER.split(actual):
        return None
    worst = 0.0
    for a, b in zip(_NUMBER.findall(expected), _NUMBER.findall(actual)):
        if a == b:
            continue
        x, y = float(a), float(b)
        if math.isnan(x) or math.isnan(y) or math.isinf(x) or math.isinf(y):
            return math.inf
        worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return worst


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    actual = produce(name, tmp_path / name)
    expected = (GOLDEN_DIR / name).read_text()
    move = max_number_move(expected, actual)
    assert move is not None, f"{name}: text differs from the golden file"
    assert move <= REL_TOL, f"{name}: a number moved by {move:.3e} relative"


def test_number_comparison():
    assert max_number_move('{"a": 1.0, "b": NaN}', '{"a": 1.0, "b": NaN}') == 0.0
    assert max_number_move('{"a": 2.0}', '{"a": 2.000000000001}') == pytest.approx(5e-13)
    assert max_number_move('{"a": 0.0}', '{"a": 1e-300}') == 1.0
    assert max_number_move('{"a": 1.0}', '{"a": NaN}') == math.inf
    assert max_number_move('{"a": 1.0}', '{"b": 1.0}') is None
    assert max_number_move('{"a": [1.0]}', '{"a": [1.0, 2.0]}') is None
