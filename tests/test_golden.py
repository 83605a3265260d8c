"""Golden outputs of the CLI.

Each case runs one command with `--out <dir>/<case name>` and compares every
file it writes with the file of the same name under tests/golden/: the text
must match exactly, except that numbers may differ by at most `REL_TOL`
relative.  Most commands write one file, at the `--out` path itself; the
cases in `SUFFIXES` write several, named by appending a suffix to it.  Grids
are kept short through each case's flags, so the files stay small.
`scripts/regen_golden.py` rewrites the files and reports every file that
moved, and by how much.
"""

import math
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

from ighit.cli import main

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
REL_TOL = 1e-12

_PATHS = ["paths", "--svg", "--T", "1", "--dt", "0.05"]
_STABLE_X = ["--x", "0.25:2:0.25"]

# case name -> command line
CASES = {
    **{f"pde_{pde.replace('-', '_')}.json": ["pde-check", "--pde", pde]
       for pde in ("hitting", "ig", "ts2", "ts3", "subordinated", "frac-hitting",
                   "frac-ig", "frac-subordinated", "pseudo-lt")},
    "pde_hitting_literal.json": ["pde-check", "--pde", "hitting", "--mode", "literal"],
    "pde_ts3_flipped.json": ["pde-check", "--pde", "ts3", "--sign", "flipped"],
    "pde_pseudo_lt_numeric.json": ["pde-check", "--pde", "pseudo-lt", "--source", "numeric"],
    "verification.json": ["verify"],
    "density_gamma0.csv": ["density", "--t", "1", "--gamma", "0", "--x", "0:2:0.25"],
    "density_gamma0.001.csv": ["density", "--t", "1", "--gamma", "0.001", "--x", "0:2:0.25"],
    "density_literal.csv": ["density", "--t", "2", "--mode", "literal", "--x", "0:2:0.25"],
    "density.json": ["density", "--t", "1", "--format", "json", "--x", "0:2:0.25"],
    "cdf.csv": ["cdf", "--t", "1", "--x", "0:3:0.5"],
    "moments.csv": ["moments", "--q", "1,2,0.5,2.7", "--variance"],
    "tail.csv": ["tail", "--t", "1", "--x", "2:8:1"],
    "tail.json": ["tail", "--t", "1", "--x", "2:8:1", "--format", "json"],
    "lt_time.csv": ["lt", "--which", "time"],
    "lt_space.csv": ["lt", "--which", "space"],
    "lt_llt.csv": ["lt", "--which", "llt"],
    "stable_half.csv": ["stable", "--beta", "0.5", *_STABLE_X, "--tail", "8:16:2"],
    "stable_third.csv": ["stable", "--beta", repr(1.0 / 3.0), *_STABLE_X],
    "stable_0.7.csv": ["stable", "--beta", "0.7", *_STABLE_X],
    "subordinated.csv": ["subordinated", "--with-path", "--x=-2:2:0.5",
                         "--T", "0.25", "--dt", "0.015625"],
    # at these seeds the first piece of the subordinator path stays below --T,
    # so `paths` has to extend it
    "paths_ig": [*_PATHS, "--seed", "2"],
    "paths_stable": [*_PATHS, "--model", "stable", "--seed", "2"],
    "paths_ts": [*_PATHS, "--model", "ts", "--beta", "0.7", "--seed", "1"],
}

# case name -> suffixes of the files it writes, for the cases that write more
# than the one file at their --out path
SUFFIXES = {
    "stable_half.csv": ("", "_tail.json"),
    "subordinated.csv": ("", "_path.csv"),
    **{f"paths_{model}": ("_g.csv", "_h.csv", ".svg") for model in ("ig", "stable", "ts")},
}

_NUMBER = re.compile(r"-?(?:\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|Infinity)|NaN")


def produce(name: str, out_dir) -> dict:
    """Run the case `name` with its --out in out_dir; the text of each file it
    writes, by file name."""
    out = pathlib.Path(out_dir) / name
    code = main(CASES[name] + ["--out", str(out)])
    if code != 0:
        raise RuntimeError(f"{name}: exit {code}")
    return {name + suffix: pathlib.Path(str(out) + suffix).read_text()
            for suffix in SUFFIXES.get(name, ("",))}


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
    for file_name, actual in produce(name, tmp_path).items():
        expected = (GOLDEN_DIR / file_name).read_text()
        move = max_number_move(expected, actual)
        assert move is not None, f"{file_name}: text differs from the golden file"
        assert move <= REL_TOL, f"{file_name}: a number moved by {move:.3e} relative"


def test_number_comparison():
    assert max_number_move('{"a": 1.0, "b": NaN}', '{"a": 1.0, "b": NaN}') == 0.0
    assert max_number_move('{"a": 2.0}', '{"a": 2.000000000001}') == pytest.approx(5e-13)
    assert max_number_move('{"a": 0.0}', '{"a": 1e-300}') == 1.0
    assert max_number_move('{"a": 1.0}', '{"a": NaN}') == math.inf
    assert max_number_move('{"a": 1.0}', '{"b": 1.0}') is None
    assert max_number_move('{"a": [1.0]}', '{"a": [1.0, 2.0]}') is None


@pytest.mark.parametrize("argv,code", [(["--help"], 0), (["--bogus"], 2), (["x"], 2)],
                         ids=["help", "unknown_flag", "positional"])
def test_regen_script_refuses_arguments_without_writing(argv, code, tmp_path):
    # a copy of the script and of this module, so that a script which ignored
    # its arguments would rewrite the copy's golden files, not these
    root = pathlib.Path(__file__).resolve().parents[1]
    for part in ("scripts/regen_golden.py", "tests/test_golden.py"):
        (tmp_path / part).parent.mkdir(exist_ok=True)
        shutil.copy(root / part, tmp_path / part)
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, str(tmp_path / "scripts/regen_golden.py"), *argv],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == code
    assert "usage: regen_golden.py" in (proc.stdout if code == 0 else proc.stderr)
    assert sorted(p.name for p in tmp_path.rglob("*") if p.is_file()) == [
        "regen_golden.py", "test_golden.py"]
