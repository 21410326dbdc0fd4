"""Reproducible i.i.d. sampling of labeled points from a density pair.

X is drawn by rejection against the constant envelope of the pair's
marginal (`DensityPair.marginal`: a perturbed pair draws X from its base,
whose f_sigma it equals in exact arithmetic); the label is +1 with
probability f+ / f_sigma at X.  Each trial owns a private stream, a pure
function of (master_seed, trial_index), so results are byte-identical
regardless of worker schedule or of how trials are grouped into blocks.
Pairs that share one marginal (`==`) draw a block together: x and the
label uniforms are drawn once, and only the label test runs per pair.

Stream layout (stream_version 4).  Trial t of master seed s, 0 <= s < 2^128,
reads the doubles of numpy's PCG64 seeded with four 64-bit words: the first
four that numpy's Philox, keyed by s, draws from counter t.  Philox is
counter-based, so distinct trial indices give independent words, and each
trial's PCG64 starts from its own random state on its own stream.  Each
rejection round takes k abscissae, then k acceptance uniforms, with k sized
from the acceptance rate 1/envelope; once n points are accepted, n label
uniforms follow.  `sample` reads trial 0, and a rate sweep reads trial t at
sample size n as trial n * 2^64 + t (harness).  The disjunction's trial t
reads trial_index + t under both P and Q, one draw of x for the two
(lowerbound).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .divergence import QuadratureSpec, adaptive_simpson
from .errors import EnvelopeViolated
from .model import DensityPair

__all__ = ["SeedPolicy", "LabeledSample", "draw", "draw_block", "sub_blocks",
           "cdf_sigma"]

STREAM_VERSION = 4
# A block of trials draws its first-round abscissae and acceptance uniforms
# together, up to this many doubles: one trial at n = 10^4, 16 at n = 1000,
# 63 at n = 250.  Three-trial blocks at n = 10^4 ran slower: the heap gave
# their 240 KB arrays back to the kernel and faulted them in again on every
# block.
_MAX_BLOCK_UNIFORMS = 2 ** 15
_PROPOSAL_SDS = 3.0  # proposals beyond the expected count, in standard deviations


@dataclass(frozen=True)
class SeedPolicy:
    """Names one trial's stream, a pure function of (master_seed,
    trial_index), 0 <= master_seed < 2^128 and trial_index >= 0 (module
    docstring)."""

    master_seed: int
    trial_index: int = 0

    def __post_init__(self):
        if not (0 <= self.master_seed < 2 ** 128 and self.trial_index >= 0):
            raise ValueError(f"no stream for {self}: needs 0 <= master_seed"
                             " < 2^128 and trial_index >= 0")


@functools.cache
def _words_type() -> type:
    """The seed material that hands a bit generator given uint64 words:
    Philox its two-word key, PCG64 its initial state and stream.  Built on
    first use, so that `import threshlab` does not import numpy.random,
    which numpy loads lazily."""
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            assert len(self.words) == n_words and dtype == np.uint64
            return self.words

    return Words


def _trial_generators(master_seed: int, trials) -> list:
    """One Generator per trial index, on that trial's stream of master_seed."""
    if not len(trials):
        return []
    SeedPolicy(master_seed, min(trials))  # the range rule, once a block
    words = _words_type()
    counter = int(trials[0])
    # the key as seed material: key= would first build a SeedSequence from
    # OS entropy and throw it away
    key = np.array([master_seed & (2 ** 64 - 1), master_seed >> 64],
                   dtype=np.uint64)
    philox = np.random.Philox(words(key), counter=counter)
    gens = []
    for t in map(int, trials):
        if t != counter:
            philox.advance((t - counter) % 2 ** 256)
        counter = t + 1  # random_raw(4) reads one counter's block
        bits = np.random.PCG64(words(philox.random_raw(4)))
        gens.append(np.random.Generator(bits))
    return gens


@dataclass(frozen=True)
class LabeledSample:
    """An ordered sample of (x, y) pairs; x in [0, 1], y in {+1, -1}.  x and
    y are 1-d and of one length; other shapes or labels raise ValueError."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if np.ndim(self.x) != 1 or np.shape(self.y) != np.shape(self.x):
            raise ValueError(f"a sample needs 1-d x and y of one length, got "
                             f"x of shape {np.shape(self.x)} and y of shape "
                             f"{np.shape(self.y)}")
        if not np.all((self.y == 1) | (self.y == -1)):
            raise ValueError("a sample's labels must be +1 or -1")

    def __len__(self) -> int:
        return len(self.x)


def draw(P: DensityPair, n: int, seed: SeedPolicy) -> LabeledSample:
    """n i.i.d. copies of (X, Y) under P, fully deterministic given the seed."""
    x, y = draw_block((P,), n, seed.master_seed, [seed.trial_index])
    return LabeledSample(x=x[0], y=y[0, 0])


def _proposal_size(m: int, envelope: float) -> int:
    """Proposals for one round that still needs m acceptances: the expected
    count m * envelope plus 3 standard deviations of that count (negative
    binomial at acceptance rate 1/envelope; an envelope below 1 counts as 1)."""
    c = max(envelope, 1.0)
    return math.ceil(m * c + _PROPOSAL_SDS * math.sqrt(m * c * (c - 1.0)))


def draw_block(pairs, n: int, master_seed: int, trials) -> tuple:
    """Samples of n points under each of a nonempty sequence of pairs with
    one marginal (`==`), for a sequence of trial indices: x of shape
    (len(trials), n) and y of shape (len(pairs), len(trials), n), where
    (x[k], y[j, k]) is draw(pairs[j], n, SeedPolicy(master_seed, trials[k])).

    Each round stacks the proposals of every stream still short of n, so
    the marginal's f_sigma is evaluated once per round; every proposal is
    checked against the envelope.  The f_sigma values of the accepted
    points are kept, the label uniforms w are drawn once, and each pair's
    y = +1 where w * f_sigma < its f+.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not pairs or any(p.marginal != pairs[0].marginal for p in pairs[1:]):
        raise ValueError("draw_block needs one or more pairs with one marginal")
    M = pairs[0].marginal
    envelope = M.envelope
    gens = _trial_generators(master_seed, trials)
    x = np.empty((len(gens), n))
    fsum = np.empty((len(gens), n))
    got = [0] * len(gens)
    short = list(range(len(gens))) if n > 0 else []
    while short:
        ends = np.cumsum([_proposal_size(n - got[k], envelope) for k in short])
        u = np.empty(ends[-1])
        v = np.empty(ends[-1])
        for k, lo, hi in zip(short, [0, *ends[:-1]], ends):
            gens[k].random(out=u[lo:hi])
            gens[k].random(out=v[lo:hi])
        fx = M.fsum(u)
        if np.any(fx > envelope):
            raise EnvelopeViolated(
                f"{M.name}: f_sigma exceeds envelope {envelope}"
            )
        v *= envelope
        accepted = np.flatnonzero(v <= fx)
        cuts = np.searchsorted(accepted, ends[:-1])
        for k, idx in zip(short, np.split(accepted, cuts)):
            idx = idx[:n - got[k]]
            done = got[k] + len(idx)
            # idx is in range, and "clip" copies without a buffer
            np.take(u, idx, out=x[k, got[k]:done], mode="clip")
            np.take(fx, idx, out=fsum[k, got[k]:done], mode="clip")
            got[k] = done
        short = [k for k in short if got[k] < n]
        del u, v, fx, accepted  # freed before the next round's arrays
    w = np.empty_like(x)
    for gen, row in zip(gens, w):
        gen.random(out=row)
    w *= fsum
    w, flat = w.ravel(), x.ravel()
    # one flat call a pair: the bump's in-support test is cheaper on a 1-d array
    plus = np.stack([w < pair.fplus.val(flat) for pair in pairs])
    y = plus.view(np.int8) * np.int8(2) - np.int8(1)
    return x, y.reshape(len(pairs), *x.shape)


def sub_blocks(trials, n: int, envelope: float) -> list:
    """Consecutive runs of trials whose first-round abscissae and acceptance
    uniforms at sample size n hold at most _MAX_BLOCK_UNIFORMS doubles, one
    trial at the least."""
    per_trial = 2 * max(_proposal_size(n, envelope), 1)
    size = max(1, _MAX_BLOCK_UNIFORMS // per_trial)
    return [trials[i:i + size] for i in range(0, len(trials), size)]


def cdf_sigma(P: DensityPair, x: float) -> float:
    """CDF of the X-marginal: integral of f_sigma over [0, x] (test oracle
    for draw)."""
    if not (0.0 <= x <= 1.0):
        raise ValueError("x must lie in [0, 1]")
    val, _ = adaptive_simpson(P.fsum, 0.0, x, QuadratureSpec(), P.breakpoints)
    return val
