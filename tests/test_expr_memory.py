"""A jet is one walk of its tree that keeps no node's arrays: the derivative
of the margin costs no more memory than the larger of its two label jets."""

import tracemalloc

import numpy as np
import pytest

from threshlab.model import builtin_model
from threshlab.perturbation import default_bump, make_plan, perturb


def traced_peak(fn, x) -> int:
    """Bytes fn(x) holds at its peak, result included, after one warm-up
    call (per-node caches such as `support` are filled by then)."""
    fn(x)
    tracemalloc.start()
    try:
        fn(x)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["canonical", "tilted", "curved"])
def test_margin_der_peak_is_one_label_jet_at_a_time(name):
    P, phi = builtin_model(name), default_bump()
    Q = perturb(P, phi, make_plan(P, phi, 0.05, 10**4).eps)
    x = np.linspace(0.0, 1.0, 10_001)
    jets = max(traced_peak(f.jet, x) for f in (Q.fplus, Q.fminus))
    # the caller holds the first label's derivative, then the difference
    assert traced_peak(Q.margin_der, x) <= jets + 2 * x.nbytes
