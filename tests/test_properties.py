"""Properties over random valid q-Gaussian parameters: the Stam and q-CR
products are invariant under exact grid dilation, and the Stam product's
shared M_q gives the same bits as I and N_q computed apart."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qfisher.core import Axis, GridDensity
from qfisher.estimation import qcr_product
from qfisher.inequalities import stam_hypothesis_ok, stam_product
from qfisher.info_measures import entropy_power, i_fisher
from qfisher.qgaussian import QGaussianParams, grid_density

#: q on both sides of 1, and q = 1 itself (the Shannon branches)
Q = st.one_of(st.just(1.0), st.floats(0.6, 3.0))
ALPHA = st.floats(1.5, 4.0)
GAMMA = st.floats(0.3, 3.0)
DILATION = st.floats(0.2, 5.0)


def reference(q, alpha, gamma, count=801):
    p = QGaussianParams(q, alpha, gamma, 1)
    assert stam_hypothesis_ok(q, p.beta, 1)
    return grid_density(p, count), p.beta


def dilated(f, c):
    """f_c(x) = f(x / c) / c sampled on the dilated axis: the same values
    over c, at the nodes c x_i."""
    a = f.axis
    return GridDensity(Axis(a.lo * c, a.hi * c, a.count), f.values / c, f.dim)


def rel(a, b):
    return abs(a - b) / abs(b)


@settings(max_examples=40, deadline=None)
@given(q=Q, alpha=ALPHA, gamma=GAMMA, c=DILATION)
def test_stam_product_dilation_invariant(q, alpha, gamma, c):
    f, beta = reference(q, alpha, gamma)
    assert rel(stam_product(dilated(f, c), q, beta), stam_product(f, q, beta)) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(q=Q, alpha=ALPHA, gamma=GAMMA, c=DILATION)
def test_qcr_product_dilation_invariant(q, alpha, gamma, c):
    f, _ = reference(q, alpha, gamma)
    before, after = qcr_product(f, q, alpha), qcr_product(dilated(f, c), q, alpha)
    assert np.isfinite(before.lhs)
    assert rel(after.lhs, before.lhs) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(q=Q, alpha=ALPHA, gamma=GAMMA, c=st.one_of(st.just(1.0), DILATION))
def test_shared_m_q_stam_product_bitwise(q, alpha, gamma, c):
    f, beta = reference(q, alpha, gamma)
    f = dilated(f, c)
    apart = i_fisher(f, q, beta) ** (1.0 / beta) * entropy_power(f, q) ** 0.5
    assert np.float64(stam_product(f, q, beta)).view(np.int64) == np.float64(apart).view(np.int64)
