"""Executable information inequalities.

Three checkers: the entropy filter relating expectations under two measures,
the two-point disjunction forcing every estimator to err on one of a
low-entropy, well-separated pair, and its general-loss analogue verified by
exhaustive enumeration on finite models.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidModel, PremiseFails, TooLarge
from .estimators import estimate_all
from .model import DensityPair
from .perturbation import two_point_premises
from .sampling import SeedPolicy

__all__ = [
    "FiniteModel",
    "GeneralLossSetup",
    "finite_relative_entropy",
    "lemma21_check",
    "disjunction_check",
    "DisjunctionReport",
    "lemma71_check",
]

_TOL = 1e-12


@dataclass(frozen=True)
class FiniteModel:
    """Two distributions p, q on k <= 8 outcomes with q > 0 wherever p > 0."""

    p: tuple
    q: tuple

    def __post_init__(self):
        k = len(self.p)
        if not (1 <= k <= 8) or len(self.q) != k:
            raise InvalidModel("p and q must have equal length in 1..8")
        for dist, label in ((self.p, "p"), (self.q, "q")):
            if not all(v >= 0 for v in dist):  # NaN fails each test
                raise InvalidModel(f"{label} has a negative entry")
            if not abs(sum(dist) - 1.0) <= _TOL:
                raise InvalidModel(f"{label} sums to {sum(dist)}, not 1")
        if any(pi > 0 and qi == 0 for pi, qi in zip(self.p, self.q)):
            raise InvalidModel("q vanishes where p has mass (infinite entropy)")

    @property
    def outcomes(self) -> int:
        return len(self.p)


def finite_relative_entropy(m: FiniteModel) -> float:
    """H(p, q) computed exactly on the finite outcome space."""
    return sum(
        pi * math.log(pi / qi) for pi, qi in zip(m.p, m.q) if pi > 0
    )


def lemma21_check(m: FiniteModel, x_values) -> tuple:
    """Entropy filter: E_q[X] >= e^(-2H(p,q)-1) (E_p[X] - 1/2) for 0 <= X <= 1.

    Returns (lhs, rhs, holds).  This is a proved inequality; a violation
    beyond tolerance indicates an arithmetic bug.
    """
    x = np.asarray(x_values, dtype=float)
    if len(x) != m.outcomes:
        raise InvalidModel("x_values length must equal the outcome count")
    if not np.all((x >= 0) & (x <= 1)):
        raise InvalidModel("X must take values in [0, 1]")
    h = finite_relative_entropy(m)
    lhs = float(np.dot(m.q, x))
    rhs = math.exp(-2.0 * h - 1.0) * (float(np.dot(m.p, x)) - 0.5)
    return lhs, rhs, lhs >= rhs - _TOL


@dataclass(frozen=True)
class DisjunctionReport:
    chi_mean_p: float
    stderr_p: float
    chi_mean_q: float
    stderr_q: float
    trials: int
    holds: bool


def disjunction_check(P: DensityPair, Q: DensityPair, n: int, beta: float,
                      delta: float, estimator: str, trials: int,
                      seed: SeedPolicy) -> DisjunctionReport:
    """Two-point disjunction: under the premises n H(P,Q) <= (1/2)|log(11 delta)|
    and beta |a(P) - a(Q)| > 4 (perturbation.two_point_premises), at least
    one chi-mean must fall below 1 - delta.  Monte Carlo estimates both means
    and asserts the conclusion up to 3 binomial standard errors.  Trial t
    reads stream seed.trial_index + t under both P and Q, drawn once for both
    if they share a marginal (`==`), as perturb's Q does, else P's first.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    h, budget, separation, entropy_ok, separation_ok = \
        two_point_premises(P, Q, n, beta, delta)
    if not entropy_ok:
        raise PremiseFails("entropy", f"nH={n * h:.4g} > {budget:.4g}")
    if not separation_ok:
        raise PremiseFails("separation",
                           f"beta|a(P)-a(Q)|={separation:.4g} <= 4")
    run = range(seed.trial_index, seed.trial_index + trials)
    groups = [(P, Q)] if P.marginal == Q.marginal else [(P,), (Q,)]
    a_hats = np.concatenate([estimate_all(g, (estimator,), n, seed.master_seed,
                                          run)[:, 0] for g in groups])
    means, errs = [], []
    for pair, row in zip((P, Q), a_hats):
        # chi is the indicator of the closed window [-1, 1]
        inside = np.abs(beta * (row - pair.threshold)) <= 1.0
        hits = int(np.count_nonzero(inside))
        mean = hits / trials
        means.append(mean)
        errs.append(math.sqrt(max(mean * (1.0 - mean), 1e-12) / trials))
    holds = any(m < 1.0 - delta + 3.0 * e for m, e in zip(means, errs))
    return DisjunctionReport(
        chi_mean_p=means[0], stderr_p=errs[0],
        chi_mean_q=means[1], stderr_q=errs[1],
        trials=trials, holds=holds,
    )


@dataclass(frozen=True)
class GeneralLossSetup:
    """Finite two-measure setup with per-hypothesis losses and a gap gamma.

    The premise requires the regret sums Delta_P(h) + Delta_Q(h) >= gamma
    for every hypothesis h, where Delta is loss minus the per-measure
    minimum.
    """

    model: FiniteModel
    loss_p: tuple
    loss_q: tuple
    gamma: float

    def __post_init__(self):
        if len(self.loss_p) != len(self.loss_q) or len(self.loss_p) < 1:
            raise InvalidModel("loss lists must be nonempty and equal length")
        if not self.gamma > 0:
            raise InvalidModel("gamma must be positive")
        if not all(math.isfinite(v) for v in (*self.loss_p, *self.loss_q)):
            raise InvalidModel("losses must be finite")

    def regrets(self) -> tuple:
        dp = tuple(v - min(self.loss_p) for v in self.loss_p)
        dq = tuple(v - min(self.loss_q) for v in self.loss_q)
        return dp, dq


def lemma71_check(setup: GeneralLossSetup, n: int, delta: float,
                  decision_rule) -> tuple:
    """General-loss disjunction, verified by exact enumeration.

    decision_rule holds one hypothesis index for each of the k^n length-n
    outcome sequences, in lexicographic order.  Returns (eP, eQ, holds)
    where eP = E_{P^n}[capped regret under P] and the disjunction is
    eP >= delta*gamma  OR  eQ >= (1/2 - delta)*gamma*e^(-2nH(P,Q)-1).
    """
    if not (0.0 < delta < 0.5):
        raise InvalidModel("delta must lie in (0, 1/2)")
    k = setup.model.outcomes
    if n < 1 or k ** n > 4096:
        raise TooLarge(f"k^n = {k ** n} exceeds the enumeration cap 4096")
    rule, hyps = list(decision_rule), len(setup.loss_p)
    if len(rule) != k ** n or not all(h in range(hyps) for h in rule):
        raise InvalidModel(f"decision_rule needs {k ** n} entries in range({hyps})")
    dp, dq = setup.regrets()
    gamma = setup.gamma
    if min(a + b for a, b in zip(dp, dq)) < gamma - _TOL:
        raise PremiseFails("regret-gap",
                           "some h has Delta_P(h) + Delta_Q(h) < gamma")
    dpg = [min(gamma, v) for v in dp]
    dqg = [min(gamma, v) for v in dq]
    ep = eq = 0.0
    for s, h in zip(itertools.product(range(k), repeat=n), rule):
        prob_p = math.prod(setup.model.p[i] for i in s)
        prob_q = math.prod(setup.model.q[i] for i in s)
        ep += prob_p * dpg[h]
        eq += prob_q * dqg[h]
    hq = finite_relative_entropy(setup.model)
    holds = (ep >= delta * gamma - _TOL) or (
        eq >= (0.5 - delta) * gamma * math.exp(-2.0 * n * hq - 1.0) - _TOL
    )
    return ep, eq, holds
