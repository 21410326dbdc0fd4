"""Reproducible i.i.d. sampling of labeled points from a density pair.

X is drawn by rejection against a constant envelope slightly above the
certified sup of f_sigma; the label is +1 with probability rho^+(X).  Each
trial owns a private generator stream derived from (master_seed,
trial_index), so results are byte-identical regardless of worker schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergence import QuadratureSpec, adaptive_simpson
from .errors import EnvelopeViolated
from .model import DensityPair

__all__ = ["SeedPolicy", "LabeledSample", "draw", "cdf_sigma"]

_ENVELOPE_FACTOR = 1.01


@dataclass(frozen=True)
class SeedPolicy:
    """Counter-based per-trial stream derivation: the stream is a pure
    function of (master_seed, trial_index)."""

    master_seed: int
    trial_index: int = 0

    def rng(self) -> np.random.Generator:
        ss = np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(self.trial_index,)
        )
        return np.random.default_rng(ss)


@dataclass(frozen=True)
class LabeledSample:
    """An ordered sample of (x, y) pairs; x in [0, 1], y in {+1, -1}."""

    x: np.ndarray
    y: np.ndarray
    seed: int
    model_name: str = ""

    def __len__(self) -> int:
        return len(self.x)

    @property
    def points(self) -> list:
        return list(zip(self.x.tolist(), self.y.tolist()))

    def subset(self, start: int, stop: int) -> "LabeledSample":
        return LabeledSample(
            x=self.x[start:stop], y=self.y[start:stop],
            seed=self.seed, model_name=self.model_name,
        )

    @staticmethod
    def from_points(points, seed: int = 0, model_name: str = "") -> "LabeledSample":
        if len(points) == 0:
            return LabeledSample(np.empty(0), np.empty(0, dtype=np.int8),
                                 seed, model_name)
        xs, ys = zip(*points)
        return LabeledSample(
            x=np.asarray(xs, dtype=float),
            y=np.asarray(ys, dtype=np.int8),
            seed=seed,
            model_name=model_name,
        )


def draw(P: DensityPair, n: int, seed: SeedPolicy) -> LabeledSample:
    """n i.i.d. copies of (X, Y) under P, fully deterministic given the seed."""
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = seed.rng()
    # the envelope must dominate the X-marginal f_sigma = f+ + f-, not the
    # per-label sup: grid sup plus a Lipschitz pad, then a safety factor
    grid = np.linspace(0.0, 1.0, 4097)
    fg = P.fsum(grid)
    dg = np.abs(P.fplus.der(grid)) + np.abs(P.fminus.der(grid))
    pad = 0.5 * float(grid[1] - grid[0]) * float(np.max(dg))
    envelope = _ENVELOPE_FACTOR * (float(np.max(fg)) + pad)
    xs = []
    got = 0
    while got < n:
        batch = max(2 * (n - got), 1024)
        u = rng.random((batch, 2))
        fx = P.fsum(u[:, 0])
        if np.any(fx > envelope):
            raise EnvelopeViolated(
                f"{P.name}: f_sigma exceeds envelope {envelope}"
            )
        accept = u[:, 1] * envelope <= fx
        xs.append(u[accept, 0])
        got += int(np.count_nonzero(accept))
    x = np.concatenate(xs)[:n] if xs else np.empty(0)
    fsum = P.fsum(x)
    rho_plus = np.divide(P.fplus.val(x), fsum, out=np.zeros_like(fsum),
                         where=fsum > 0)
    v = rng.random(n)
    y = np.where(v < rho_plus, 1, -1).astype(np.int8)
    return LabeledSample(x=x, y=y, seed=seed.master_seed, model_name=P.name)


def cdf_sigma(P: DensityPair, x: float,
              spec: QuadratureSpec = QuadratureSpec()) -> float:
    """CDF of the X-marginal: integral of f_sigma over [0, x] (test oracle
    for draw)."""
    if not (0.0 <= x <= 1.0):
        raise ValueError("x must lie in [0, 1]")
    val, _ = adaptive_simpson(P.fsum, 0.0, x, spec, P.breakpoints)
    return val
