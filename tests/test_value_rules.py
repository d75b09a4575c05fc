"""Each value is checked by the type or function that holds it.

One property covers every such rule: a NaN, an infinity or an out-of-range
value given to a modulus constructor, an ellipticity pair, a sample plan,
``oscillation_theta``, an exact quadratic or ``solve_linear_tangential``
raises an EllipticLabError subclass.  It never returns (a NaN or a value
measured on something else), and never lets a numpy error or a
RuntimeWarning (an error under this suite's warning filter) escape.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ellipticlab import fields, moduli, operators, solver
from ellipticlab.errors import EllipticLabError
from ellipticlab.operators import SamplePlan, SymMatrix

NAN, INF = math.nan, math.inf
NON_FINITE = st.sampled_from([NAN, INF, -INF])
I2 = SymMatrix.identity(2)
LAPLACE = operators.linear_trace(np.eye(2))
# an x-dependent operator: a NaN point would make its oscillation NaN
COEFFICIENT = operators.linear_trace(np.eye(2), x_dependence=lambda x: 1.0 + x[..., 0] ** 2)


def at_most(x):
    return st.floats(max_value=x, allow_nan=False, allow_infinity=False)


def above(x):
    return st.floats(min_value=x, exclude_min=True, allow_nan=False, allow_infinity=False)


def points(good):
    """Lists of 2 coordinates in [-1, 1]; bad ones have another length or
    a non-finite entry."""
    coords = st.floats(-1.0, 1.0)
    if good:
        return st.lists(coords, min_size=2, max_size=2)
    wrong_length = st.lists(coords, max_size=4).filter(lambda v: len(v) != 2)
    holed = st.tuples(coords, NON_FINITE) | st.tuples(NON_FINITE, coords)
    return wrong_length | holed.map(list)


def knots(good_values, first_may_vanish=False):
    """The table knots ``good_values`` with one replaced by a non-finite,
    negative or zero value.  With ``first_may_vanish`` (table values, which
    start at 0 in a valid table), a zero replaces a later knot only."""
    negative = st.floats(max_value=0.0, exclude_max=True)
    zero = st.sampled_from([0.0, -0.0])
    first = 1 if first_may_vanish else 0
    swaps = (st.tuples(st.integers(0, len(good_values) - 1), NON_FINITE | negative)
             | st.tuples(st.integers(first, len(good_values) - 1), zero))
    return swaps.map(lambda iv: [iv[1] if k == iv[0] else v for k, v in enumerate(good_values)])


def boundary_arrays():
    """Boundary data for a 9-node grid that is the wrong shape or not finite."""
    wrong_shape = st.sampled_from([7, 8, 10, 11]).map(lambda k: np.zeros((k, k)))
    holed = st.tuples(st.integers(0, 80), NON_FINITE).map(
        lambda iv: np.where(np.arange(81).reshape(9, 9) == iv[0], iv[1], 0.0))
    return wrong_shape | holed


# name -> (call, one (good, bad) strategy pair per argument)
CASES = {
    "power": (moduli.power, [
        (st.floats(0.01, 1.0), at_most(0.0) | above(1.0) | NON_FINITE),
        (st.floats(0.01, 1.0), at_most(0.0) | above(1.0) | NON_FINITE),
    ]),
    "power_log": (moduli.power_log, [
        (st.floats(0.01, 1.0), at_most(0.0) | NON_FINITE),
        (st.floats(0.0, 3.0), st.floats(max_value=0.0, exclude_max=True) | NON_FINITE),
        (st.none() | st.floats(0.01, 0.5), at_most(0.0) | above(0.5) | NON_FINITE),
    ]),
    "power_ln_z": (moduli.power_ln_z, [
        (st.floats(0.01, 1.0), at_most(0.0) | NON_FINITE),
        (st.floats(-3.0, 3.0), NON_FINITE),
        (st.none() | st.floats(0.01, 0.5), at_most(0.0) | above(0.5) | NON_FINITE),
    ]),
    "inverse_log": (moduli.inverse_log, [
        (st.floats(0.01, 3.0), at_most(0.0) | NON_FINITE),
        (st.floats(0.01, 0.5), at_most(0.0) | above(0.5) | NON_FINITE),
    ]),
    "from_table": (moduli.from_table, [
        (st.just([0.01, 0.1, 0.5]), knots([0.01, 0.1, 0.5])),
        (st.just([0.1, 0.3, 0.7]), knots([0.1, 0.3, 0.7], first_may_vanish=True)),
    ]),
    "EllipticityPair": (operators.EllipticityPair, [
        (st.floats(0.1, 1.0), at_most(0.0) | above(10.0) | NON_FINITE),
        (st.floats(1.0, 10.0), at_most(0.09) | NON_FINITE),
    ]),
    "SamplePlan": (SamplePlan, [
        (st.integers(0, 2**32), st.integers(max_value=-1) | NON_FINITE),
        (st.integers(1, 50), st.integers(max_value=0) | NON_FINITE),
    ]),
    "oscillation_theta": (
        lambda x, x0: operators.oscillation_theta(COEFFICIENT, x, x0, SamplePlan(count=8)),
        [(points(True), points(False)), (points(True), points(False))]),
    "quadratic_solution": (
        lambda c, b: solver.mms_generate(LAPLACE, fields.quadratic_solution(c, b, I2), N=9),
        [(st.floats(-1.0, 1.0), NON_FINITE), (points(True), points(False))]),
    "solve_linear_tangential": (
        lambda boundary: solver.solve_linear_tangential(I2, boundary, 9),
        [(st.nothing(), boundary_arrays())]),
}


def one_bad(pairs):
    """Argument tuples with one argument drawn from its bad strategy and
    every other from its good one."""
    return st.integers(0, len(pairs) - 1).flatmap(
        lambda i: st.tuples(*[bad if k == i else good for k, (good, bad) in enumerate(pairs)]))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(CASES)).flatmap(
    lambda name: st.tuples(st.just(name), one_bad(CASES[name][1]))))
@example(("power_log", (0.5, NAN, None)))
@example(("inverse_log", (NAN, 0.5)))
@example(("power_ln_z", (0.5, NAN, None)))
@example(("EllipticityPair", (1.0, INF)))
@example(("SamplePlan", (0, 0)))
@example(("SamplePlan", (0, -3)))
@example(("SamplePlan", (-1, 400)))
@example(("oscillation_theta", ([0.1, 0.2, 0.3], [0.0, 0.0])))
@example(("quadratic_solution", (0.0, [1.0, 2.0, 3.0])))
@example(("from_table", ([0.01, 0.1, INF], [0.1, 0.3, 0.7])))
@example(("from_table", ([0.01, 0.1, 0.5], [0.1, 0.0, 0.7])))
def test_a_bad_value_raises_a_package_error(case):
    name, args = case
    with pytest.raises(EllipticLabError):
        CASES[name][0](*args)


@pytest.mark.parametrize("first", [0.0, -0.0])
def test_a_table_may_start_at_zero(first):
    mod = moduli.from_table([0.01, 0.1, 0.5], [first, 0.3, 0.7])
    assert mod.evaluate(0.1) == 0.3
