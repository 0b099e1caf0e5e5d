"""The realized values behind the three acceptance checks that fail by design.

``test_acceptance.py`` keeps criteria 4a, 4b and 5a as stated, so they fail,
and a change to what they measure would leave them failing with a different
message.  These tests pin the measured values themselves: the two toy escape
counts against their first-order bounds, and the growth recurrence's gap to
its limit at ``K = 10^4`` for every rate and schedule criterion 5a tries.
"""

import math

import numpy as np
import pytest

from saddlescape import (
    AttouchSchedule,
    EqualStart,
    NesterovSchedule,
    escape_time,
    rate_limit,
    rate_sequence,
    run_gradient_descent,
    run_heavy_ball,
    toy_problem,
)

EPS, DELTA = 0.01, 0.02


def test_4a_descent_escapes_two_steps_past_its_bound():
    prob = toy_problem(DELTA)
    trace = run_gradient_descent(prob, 1.0, np.array([1.0, EPS]), 400)
    assert escape_time(trace, prob.negative_projector(), 1.0) == 233
    assert math.ceil(abs(math.log(EPS)) / DELTA) == 231


def test_4b_heavy_ball_escapes_three_steps_past_its_bound():
    prob = toy_problem(DELTA)
    trace = run_heavy_ball(prob, 3.0, 1.0 - 3.0 * DELTA, np.array([1.0, EPS]), EqualStart(), 100)
    assert escape_time(trace, prob.negative_projector(), 1.0) == 24
    assert math.ceil(math.log(2.0 / EPS) / math.sqrt(3.0 * DELTA) - 1.0) == 21


@pytest.mark.parametrize(
    "a, schedule, gap",
    [
        (1e-4, NesterovSchedule(), 1.51e-4),
        (1e-4, AttouchSchedule(2.0), 2.01e-4),
        (1e-2, NesterovSchedule(), 1.66e-4),
        (1e-2, AttouchSchedule(2.0), 2.22e-4),
        (1.0, NesterovSchedule(), 5.12e-4),
        (1.0, AttouchSchedule(2.0), 6.83e-4),  # the worst gap, which criterion 5a reports
    ],
)
def test_5a_gap_to_the_limit_at_k_1e4(a, schedule, gap):
    realized = abs(rate_sequence(-a, 1.0, schedule, 10**4).final - rate_limit(-a, 1.0, 1.0, 1.0))
    assert float(f"{realized:.3g}") == gap
