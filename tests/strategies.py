"""Hypothesis strategies shared by the property tests."""

import numpy as np
from hypothesis import strategies as st

from cflbench.core import Instance


@st.composite
def valid_instances(draw, max_d=4, max_T=8, min_d=1):
    """Random instances that pass ``validate_instance``, edges included.

    ``d = 1`` and ``T = 1``; unit or non-unit ``c`` down to the smallest
    ``max c = 1/T`` the covering constraint allows; flat prices
    (``L == U`` with zero switching weights), beta a hair under
    ``(U - L)/2``, or anywhere below it; prices drawn in [L, U] with mass on
    both ends.
    """
    d = draw(st.integers(min_d, max_d))
    T = draw(st.integers(1, max_T))
    kind = draw(st.sampled_from(["general", "flat", "edge"]))
    L = draw(st.floats(0.5, 5.0))
    U = L if kind == "flat" else L * draw(st.floats(1.5, 400.0))
    unit = st.floats(0.0, 1.0)
    if draw(st.booleans()):
        c = np.ones(d)
    else:
        c = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=d, max_size=d)))
        c /= min(1.0, T * float(np.max(c)))
    if kind == "general":
        frac = draw(st.floats(0.0, 0.99))
    else:
        frac = 1.0 - 1e-9 if kind == "edge" else 0.0
    share = np.array(draw(st.lists(unit, min_size=d, max_size=d)))
    share[draw(st.integers(0, d - 1))] = 1.0
    w = frac * (U - L) / 2.0 * share * c
    levels = draw(st.lists(st.sampled_from([0.0, 1.0]) | unit,
                           min_size=T * d, max_size=T * d))
    rates = L + np.array(levels).reshape(T, d) * (U - L)
    return Instance(d=d, T=T, L=L, U=U, c_weights=c, w_weights=w, costs=rates * c)
