"""Regenerate tests/data/entropy_reference.csv, an independent oracle for
relative_entropy on the 36 certificates of the benchmark grid.

    python3 tests/data/make_entropy_reference.py

Needs mpmath, which the tests themselves do not: they read the CSV.  For
each built-in model P, delta in {0.01, 0.05, 0.09} and n in 10^3..10^6 it
takes threshlab's float a(P) and certificate amplitude eps, and integrates

    H(P, Q_n) = sum over labels y of the integral of f_P^y log(f_P^y / f_Q^y)

with mpmath.quad at 40 significant digits on the closed-form densities:
f_Q^+ = f^+ + g, f_Q^- = f^- - g, g = Xi f^+ f^- / (f^+ + f^-) and
Xi(x) = eps cos^2(pi (x - a) / (2 eps)) on |x - a| <= eps.  Outside the
bump f_Q = f_P, so the integral runs over [a - eps, a + eps], split at a.
It takes about a minute.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))

import mpmath as mp  # noqa: E402

from threshlab.model import builtin_model  # noqa: E402
from threshlab.perturbation import default_bump, make_plan  # noqa: E402

OUT = HERE / "entropy_reference.csv"
DIGITS = 40
DELTAS = (0.01, 0.05, 0.09)
N_LIST = tuple(10 ** k for k in range(3, 7))

# the built-in pairs (f+, f-) in closed form, as in threshlab.model
DENSITIES = {
    "canonical": (lambda x: x, lambda x: 1 - x),
    "tilted": (lambda x: mp.mpf(6) / 5 * x ** 2, lambda x: mp.mpf(6) / 5 * (1 - x)),
    "curved": (lambda x: mp.mpf(6) / 7 * x, lambda x: mp.mpf(6) / 7 * (1 - x ** 2)),
}


def entropy(name: str, a: float, eps: float):
    """H(P, Q) for the bump of amplitude eps centred on a, to DIGITS digits."""
    fplus, fminus = DENSITIES[name]
    a, eps = mp.mpf(a), mp.mpf(eps)

    def integrand(x):
        p, m = fplus(x), fminus(x)
        g = eps * mp.cos(mp.pi * (x - a) / (2 * eps)) ** 2 * p * m / (p + m)
        return p * mp.log(p / (p + g)) + m * mp.log(m / (m - g))

    return mp.quad(integrand, [a - eps, a, a + eps])


def main() -> None:
    mp.mp.dps = DIGITS
    phi = default_bump()
    lines = ["model,delta,n,a,eps,H"]
    for name in DENSITIES:
        P = builtin_model(name)
        for delta in DELTAS:
            for n in N_LIST:
                eps = make_plan(P, phi, delta, n).eps
                h = entropy(name, P.threshold, eps)
                lines.append(f"{name},{delta!r},{n},{P.threshold!r},{eps!r},"
                             f"{mp.nstr(h, 20, min_fixed=1, max_fixed=0)}")
    OUT.write_text("".join(line + "\n" for line in lines))


if __name__ == "__main__":
    main()
