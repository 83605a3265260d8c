import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ighit.verification import (
    VerificationRecord,
    VerificationReport,
    _verdict,
    builder_ids,
    run_verification,
)


class TestVerdictLogic:
    def test_confirmed_when_printed_agrees(self):
        assert _verdict(1e-7, 1e-7, 1e-4) == "confirmed"

    def test_corrected_when_only_correction_agrees(self):
        assert _verdict(0.5, 1e-7, 1e-4) == "corrected"

    def test_failed_when_nothing_agrees(self):
        assert _verdict(0.5, 0.4, 1e-4) == "failed"

    def test_no_printed_variant(self):
        assert _verdict(None, 1e-7, 1e-4) == "confirmed"


class TestReportMechanics:
    def test_builder_ids_unique(self):
        ids = builder_ids()
        assert len(ids) == len(set(ids))
        assert "second_moment_m2" in ids and "tail_bound" in ids

    def test_only_filter(self):
        rep = run_verification(only="nonlevy")
        assert len(rep.records) == 1
        assert rep.records[0].id == "nonlevy_witness"
        assert rep.records[0].verdict == "confirmed"
        assert rep.ok

    def test_summary_lines(self):
        rec = VerificationRecord("demo", "demo claim", "confirmed", 1e-4, 1e-9, {})
        rep = VerificationReport((rec,))
        lines = list(rep.summary_lines())
        assert len(lines) == 1 and "confirmed" in lines[0]


class TestRecordOracles:
    def test_pde_ts_n2_checks_closed_form_against_convolution(self):
        rec = run_verification(only="pde_ts_n2").records[0]
        assert rec.verdict == "confirmed"
        assert 0.0 <= rec.values["closed_vs_convolution_max_rel"] <= 1e-8

    def test_lt_time_inversion_record(self):
        # Gaver-Stehfest on the real axis; its weights amplify the last bits of
        # Psi, so the figure is pinned to the cancellation-free form of ig_psi
        rec = run_verification(only="lt_time_inversion").records[0]
        assert rec.verdict == "confirmed"
        assert rec.discrepancy == pytest.approx(4.301755356694091e-05, rel=1e-9)


# numpy imports numpy.ma on a first np.unique call, which costs a fresh `ighit
# verify` process 14-17 ms and 1.7 MB of peak memory; numpy.polynomial (4-5 ms,
# and 1.8 MB with a first leggauss) and fractions (2-3 ms) served only constants
_UNIMPORTED = ("numpy.ma", "numpy.polynomial", "fractions")


def _loaded_modules(code):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
    code += f"\nprint([m for m in {_UNIMPORTED!r} if m in sys.modules])\n"
    out = subprocess.run([sys.executable, "-c", "import sys\n" + code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_battery_leaves_numpy_ma_unimported():
    assert _loaded_modules("from ighit.verification import run_verification\n"
                           "assert run_verification().ok") == "[]"


def test_import_leaves_numpy_ma_polynomial_and_fractions_unimported():
    assert _loaded_modules("import ighit") == "[]"
