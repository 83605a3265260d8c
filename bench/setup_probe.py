"""Set-up as a user pays it: import ighit and warm its lazy caches.

Run as a script it prints when it started (perf_counter) and the seconds this
took in a fresh interpreter; the benchmark runs it several times and reports
the median, at the reference host speed, as setup_s.
"""

import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def setup() -> tuple[float, float]:
    """Import ighit and fill the caches its first calls would fill.

    Returns when it started (perf_counter) and the seconds it took.
    """
    start = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import numpy as np

    import ighit

    # Gauss rules of the adaptive quadrature (15/31 nodes), of bessel_k (10),
    # of sub_pdf_table (12) and hit_pdf_table (16); Gaver-Stehfest weights
    ighit.integrate_interval(lambda x: x, 0.0, 1.0)
    ighit.bessel_k(1.0 / 3.0, 1.0)
    ighit.numerics.composite_gauss(np.array([0.0, 1.0]), 12)
    ighit.numerics.composite_gauss(np.array([0.0, 1.0]), 16)
    ighit.invert_laplace(lambda s: 1.0 / (s + 1.0), 1.0)
    return start, time.perf_counter() - start


if __name__ == "__main__":
    print(*map(repr, setup()))
