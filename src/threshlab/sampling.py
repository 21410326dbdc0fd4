"""Reproducible i.i.d. sampling of labeled points from a density pair.

X is drawn by rejection against the pair's constant envelope, slightly
above the certified sup of f_sigma; the label is +1 with probability
rho^+(X).  Each trial owns a private generator stream derived from
(master_seed, trial_index), so results are byte-identical regardless of
worker schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergence import QuadratureSpec, adaptive_simpson
from .errors import EnvelopeViolated
from .model import DensityPair

__all__ = ["SeedPolicy", "LabeledSample", "draw", "draw_block", "sub_blocks",
           "cdf_sigma"]

# A block of trials draws its first-round proposals together, up to this many
# uniforms; at n = 10^4 that is one trial, so per-point memory stays that of
# a single draw.
_MAX_BLOCK_UNIFORMS = 2 ** 16


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

    def __len__(self) -> int:
        return len(self.x)


def draw(P: DensityPair, n: int, seed: SeedPolicy) -> LabeledSample:
    """n i.i.d. copies of (X, Y) under P, fully deterministic given the seed."""
    x, y = draw_block(P, n, [seed])
    return LabeledSample(x=x[0], y=y[0])


def draw_block(P: DensityPair, n: int, seeds) -> tuple:
    """Samples of n points for a list of seeds, as (x, y) arrays of shape
    (len(seeds), n); row k is draw(P, n, seeds[k]).

    Each seed's stream proposes max(2 * (n - got), 1024) uniform pairs per
    round until it has n acceptances, then draws its labels.  The proposals
    of one round are stacked, so f_sigma is evaluated once per round for all
    seeds still short of n.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    rngs = [seed.rng() for seed in seeds]
    envelope = P.envelope
    parts = [[] for _ in rngs]
    got = [0] * len(rngs)
    short = list(range(len(rngs))) if n > 0 else []
    while short:
        sizes = [max(2 * (n - got[k]), 1024) for k in short]
        ends = np.cumsum(sizes).tolist()
        u = np.empty((ends[-1], 2))
        for k, lo, hi in zip(short, [0, *ends], ends):
            rngs[k].random(out=u[lo:hi])
        fx = P.fsum(u[:, 0])
        if np.any(fx > envelope):
            raise EnvelopeViolated(
                f"{P.name}: f_sigma exceeds envelope {envelope}"
            )
        accept = u[:, 1] * envelope <= fx
        for k, lo, hi in zip(short, [0, *ends], ends):
            parts[k].append(u[lo:hi, 0][accept[lo:hi]])
            got[k] += len(parts[k][-1])
        short = [k for k in short if got[k] < n]
    x = np.empty((len(rngs), n))
    for row, xs in zip(x, parts):
        if xs:
            row[:] = np.concatenate(xs)[:n]
    rho_plus = _rho_plus(P, x)
    v = np.empty_like(x)
    for rng, row in zip(rngs, v):
        rng.random(out=row)
    y = np.where(v < rho_plus, 1, -1).astype(np.int8)
    return x, y


def _rho_plus(P: DensityPair, x) -> np.ndarray:
    """rho^+ = f+ / f_sigma at x, 0 where f_sigma is 0.  f_sigma is formed
    as f+ + f-, which is P.fsum(x) bit for bit, so f+ is evaluated once."""
    fplus = P.fplus.val(x)
    fsum = fplus + P.fminus.val(x)
    return np.divide(fplus, fsum, out=np.zeros_like(fsum), where=fsum > 0)


def sub_blocks(seeds, n: int) -> list:
    """Consecutive runs of seeds whose first-round proposals at sample size
    n hold at most _MAX_BLOCK_UNIFORMS uniforms, one seed at the least."""
    size = max(1, _MAX_BLOCK_UNIFORMS // (2 * max(2 * n, 1024)))
    return [seeds[i:i + size] for i in range(0, len(seeds), size)]


def cdf_sigma(P: DensityPair, x: float) -> float:
    """CDF of the X-marginal: integral of f_sigma over [0, x] (test oracle
    for draw)."""
    if not (0.0 <= x <= 1.0):
        raise ValueError("x must lie in [0, 1]")
    val, _ = adaptive_simpson(P.fsum, 0.0, x, QuadratureSpec(), P.breakpoints)
    return val
