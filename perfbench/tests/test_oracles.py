"""The benchmark's oracles against values computed by hand."""

from fractions import Fraction as Fr

import oracles

DESK = ([[Fr(1), Fr(0)], [Fr(0), Fr(1)]], [Fr(0), Fr(1)], [Fr(0), Fr(1, 2)])
UNIFORM = ([Fr(0), Fr(1)], [Fr(1)])


def test_best_response_tie_goes_to_principal_then_lowest_index():
    F, r, c = DESK
    p = [Fr(0), Fr(1, 4)]
    pay, pu = oracles.payments(F, p), oracles.principal_utilities(F, r, p)
    # At theta = 1/2 idle earns 0 and work earns 1/4 - 1/4 = 0: a tie, and
    # the principal prefers work (3/4 against 0).
    assert oracles.best_response(pay, pu, c, Fr(1, 2)) == 1
    assert oracles.best_response(pay, pu, c, Fr(3, 4)) == 0
    # Two actions identical for both parties: the lower index wins.
    assert oracles.best_response([Fr(1), Fr(1)], [Fr(0), Fr(0)], [Fr(0), Fr(0)], Fr(1, 2)) == 0


def test_desk_closed_form_matches_hand_values():
    assert oracles.desk_mean(Fr(0), Fr(1, 2)) == oracles.DESK_OPT == Fr(1, 2)
    # t = 1/2: half the types work and pay 1/4, the rest idle and cost 0.
    assert oracles.desk_mean(Fr(0), Fr(1, 4)) == Fr(3, 8)
    # t clipped to 1 and to 0.
    assert oracles.desk_mean(Fr(0), Fr(1)) == 0
    assert oracles.desk_mean(Fr(1, 2), Fr(1, 4)) == Fr(-1, 2)


def test_segment_sum_matches_desk_closed_form():
    F, r, c = DESK
    for p in [(Fr(0), Fr(1, 2)), (Fr(0), Fr(1, 4)), (Fr(1, 8), Fr(5, 8)), (Fr(0), Fr(9, 10))]:
        assert oracles.segment_sum_value(F, r, c, *UNIFORM, p) == oracles.desk_mean(*p)


def test_segment_sum_on_two_piece_density():
    F, r, c = DESK
    # Density 3/2 on [0, 1/2), 1/2 on [1/2, 1].  Paying (0, 1/4), types up
    # to 1/2 work (mass 3/4, utility 3/4), the rest idle (utility 0).
    value = oracles.segment_sum_value(
        F, r, c, [Fr(0), Fr(1, 2), Fr(1)], [Fr(3, 2), Fr(1, 2)], [Fr(0), Fr(1, 4)]
    )
    assert value == Fr(9, 16)


def test_discretize_half_offset_grid():
    types, weights = oracles.discretize(*UNIFORM, Fr(1, 3))
    assert types == [Fr(1, 6), Fr(1, 2), Fr(5, 6)]
    assert weights == [Fr(1, 3)] * 3
    # A width that does not divide 1: the last point clamps to 1 and the
    # last cell is clipped.
    types, weights = oracles.discretize(*UNIFORM, Fr(2, 5))
    assert types == [Fr(1, 5), Fr(3, 5), Fr(1)]
    assert weights == [Fr(2, 5), Fr(2, 5), Fr(1, 5)]
    types, weights = oracles.discretize([Fr(0), Fr(1, 2), Fr(1)], [Fr(3, 2), Fr(1, 2)], Fr(1, 2))
    assert weights == [Fr(3, 4), Fr(1, 4)]


def test_discrete_value_and_payment_grid_optimum():
    F, r, c = DESK
    types, weights = [Fr(1, 4), Fr(3, 4)], [Fr(1, 2), Fr(1, 2)]
    # Paying 1/8 makes type 1/4 work (utility 7/8 with weight 1/2).
    assert oracles.discrete_value(F, r, c, types, weights, [Fr(0), Fr(1, 8)]) == Fr(7, 16)
    # Paying 3/8 makes both types work: 5/8.  That is the optimum, and it
    # lies on the grid of step 1/8.
    assert oracles.discrete_value(F, r, c, types, weights, [Fr(0), Fr(3, 8)]) == Fr(5, 8)
    assert oracles.grid_optimum_discrete(F, r, c, types, weights, 8) == Fr(5, 8)
    assert len(oracles.payment_grid(2, 8)) == 81
    assert oracles.grid_optimum_continuous(F, r, c, *UNIFORM, 4) == Fr(1, 2)


def test_cover_value_hand_computed():
    # n=2, m=1, k=1: rho = 1/64, eps = 1/256, mu = 1/512, H_2 = 3/2.
    rho, eps, mu = Fr(1, 64), Fr(1, 256), Fr(1, 512)
    want = (1 - rho) * mu * Fr(3, 2) / 8 + rho * (1 - 2 * eps) / 2
    assert oracles.cover_value(2, 1, 1) == want
    # One more set in the cover costs rho eps / n at the zero type.
    assert oracles.cover_value(3, 4, 1) - oracles.cover_value(3, 4, 2) == Fr(1, 3**15 * 4)


def test_block_constant_hand_values():
    assert oracles.block_constant(1) == 16
    assert oracles.block_constant(2) == 16
    assert oracles.block_constant(4) == 4 * 4 * 1 + 16  # log2 log2 4 = 1
    assert oracles.block_constant(16) == 4 * 16 * 2 + 16
