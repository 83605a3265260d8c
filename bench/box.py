"""Parameter boxes and query grids shared by the workloads and the references.

Plain arithmetic on numpy only, so the measured process loads nothing the
program itself does not.
"""

import math

import numpy as np

DELTA = (0.5, 2.0)
# queries draw gamma = 0 with this probability, else uniformly from GAMMA; the
# region 0 < gamma < 0.5, where the table and scalar density routes can miss
# the width-gamma/sqrt(2) peak of their integrand, enters only through fixed
# queries (see README)
GAMMA_ZERO_SHARE = 0.25
GAMMA = (0.5, 3.0)
T = (0.25, 4.0)                 # log-uniform
Q = (0.25, 3.0)                 # fractional moment order
TABLE_POINTS = 256
# sizes that give the table, subordinated and scattered-point parts of a round
# comparable shares of its time
DENSITY_TABLES_PER_ROUND = 2
POINTS_PER_ROUND = 160


def x_end(t, delta, gamma, z):
    """delta^-1 (gamma t + z sqrt(t)): P(H(t) > x_end) is about e^(-z^2/2)."""
    return (gamma * t + z * math.sqrt(t)) / delta


def stable_x_end(t, beta):
    """x with P(E(t) > x) near e^-42, from the tail rate (1-b)(t/b)^(b/(b-1))."""
    rate = (1.0 - beta) * (t / beta) ** (beta / (beta - 1.0))
    return (42.0 / rate) ** (1.0 - beta)


def gauss_panels(edges, n=16):
    """Composite Gauss-Legendre nodes and weights over consecutive panels."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    pts = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    wts = (half[:, None] * weights[None, :]).ravel()
    return pts, wts


def draw_params(rng):
    """(delta, gamma, t) from the box."""
    delta = rng.uniform(*DELTA)
    gamma = 0.0 if rng.random() < GAMMA_ZERO_SHARE else rng.uniform(*GAMMA)
    t = math.exp(rng.uniform(math.log(T[0]), math.log(T[1])))
    return delta, gamma, t
