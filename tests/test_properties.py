"""Properties over random valid q-Gaussian parameters: the Stam and q-CR
products are invariant under exact grid dilation, the Stam ratio under a
shift of the axis and the q-CR product under a shift that its recentring
undoes; the Stam product's shared M_q gives the same bits as I and N_q
computed apart; and the escort map round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfisher.core import Axis, GridDensity
from qfisher.estimation import qcr_product
from qfisher.inequalities import stam_hypothesis_ok, stam_product, stam_ratio
from qfisher.info_measures import entropy_power, escort, escort_inverse, i_fisher
from qfisher.qgaussian import QGaussianParams, grid_density

#: q on both sides of 1, and q = 1 itself (the Shannon branches)
Q = st.one_of(st.just(1.0), st.floats(0.6, 3.0))
ALPHA = st.floats(1.5, 4.0)
GAMMA = st.floats(0.3, 3.0)
DILATION = st.floats(0.2, 5.0)
#: shifts well above recenter's 1e-9 dead band, both ways
SHIFT = st.one_of(st.floats(-3.0, -0.1), st.floats(0.1, 3.0))


def reference(q, alpha, gamma, count=801):
    p = QGaussianParams(q, alpha, gamma, 1)
    assert stam_hypothesis_ok(q, p.beta, 1)
    return grid_density(p, count), p.beta


def dilated(f, c):
    """f_c(x) = f(x / c) / c sampled on the dilated axis: the same values
    over c, at the nodes c x_i."""
    a = f.axis
    return GridDensity(Axis(a.lo * c, a.hi * c, a.count), f.values / c, f.dim)


def shifted(f, s):
    """f(x - s) sampled on the shifted axis: the same values at the nodes
    x_i + s."""
    a = f.axis
    return GridDensity(Axis(a.lo + s, a.hi + s, a.count), f.values, f.dim)


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


@settings(max_examples=40, deadline=None)
@given(q=Q, alpha=ALPHA, gamma=GAMMA, s=SHIFT)
def test_stam_ratio_shift_invariant(q, alpha, gamma, s):
    f, beta = reference(q, alpha, gamma)
    assert rel(stam_ratio(shifted(f, s), q, beta).lhs, stam_ratio(f, q, beta).lhs) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(q=Q, alpha=ALPHA, gamma=GAMMA, s=SHIFT)
def test_qcr_product_shift_undone_by_recenter(q, alpha, gamma, s):
    f, _ = reference(q, alpha, gamma)
    with pytest.warns(UserWarning, match="recentered"):
        after = qcr_product(shifted(f, s), q, alpha)
    assert rel(after.lhs, qcr_product(f, q, alpha).lhs) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(q=Q, alpha=ALPHA, gamma=GAMMA)
def test_escort_round_trip(q, alpha, gamma):
    f, _ = reference(q, alpha, gamma)
    back = escort_inverse(escort(f, q), q)
    assert np.max(np.abs(back.values - f.values)) <= 1e-12 * np.max(f.values)
