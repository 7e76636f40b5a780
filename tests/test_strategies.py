"""Strategy manifold: parametrized unitaries, named points, token parsing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qgames import (
    COOPERATE,
    DEFECT,
    QY,
    DomainError,
    StrategyParams,
    StrategySyntaxError,
    classical_mix_prob,
    named,
    parse_strategy,
    strategy_token,
    unitary_of,
)
from qgames.strategies import params_of_octant_point

thetas = st.floats(0.0, math.pi, allow_nan=False)
phis = st.floats(0.0, math.pi / 2, allow_nan=False)


class TestStrategyParams:
    @pytest.mark.parametrize(
        "theta,phi",
        [(-1e-9, 0.0), (math.pi + 1e-9, 0.0), (0.0, -1e-9), (0.0, math.pi / 2 + 1e-9)],
    )
    def test_closed_bounds_enforced_strictly(self, theta, phi):
        with pytest.raises(DomainError):
            StrategyParams(theta, phi)

    def test_no_angle_wrapping(self):
        with pytest.raises(DomainError):
            StrategyParams(2.0 * math.pi, 0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            StrategyParams(math.nan, 0.0)

    def test_boundary_values_accepted(self):
        StrategyParams(0.0, 0.0)
        StrategyParams(math.pi, math.pi / 2)


class TestNamedStrategies:
    def test_cooperate_is_origin(self):
        assert named("COOPERATE") == StrategyParams(0.0, 0.0) == COOPERATE

    def test_defect_is_bit_flip_corner(self):
        assert named("DEFECT") == StrategyParams(math.pi, math.pi / 2) == DEFECT

    def test_qy_is_real_rotation_corner(self):
        assert named("QY") == StrategyParams(math.pi, 0.0) == QY

    def test_short_names_and_case(self):
        assert named("c") == COOPERATE
        assert named("d") == DEFECT
        assert named("qy") == QY

    def test_unknown_name_raises_lookup_error(self):
        with pytest.raises(KeyError):
            named("Z")


class TestUnitaryOf:
    def test_cooperate_is_identity(self):
        assert_allclose(unitary_of(COOPERATE), np.eye(2), atol=1e-15)

    def test_defect_is_i_sigma_x(self):
        assert_allclose(unitary_of(DEFECT), np.array([[0, 1j], [1j, 0]]), atol=1e-15)

    def test_qy_is_i_sigma_y(self):
        assert_allclose(unitary_of(QY), np.array([[0, 1], [-1, 0]]), atol=1e-15)

    def test_unitary_with_unit_determinant_on_grid(self):
        """50 x 25 sweep of the closed parameter rectangle."""
        for theta in np.linspace(0.0, math.pi, 50):
            for phi in np.linspace(0.0, math.pi / 2, 25):
                mat = unitary_of(StrategyParams(float(theta), float(phi)))
                assert_allclose(mat.conj().T @ mat, np.eye(2), atol=1e-12)
                assert abs(np.linalg.det(mat) - 1.0) <= 1e-12

    @settings(max_examples=80, deadline=None)
    @given(theta=thetas, phi=phis)
    def test_unitary_everywhere(self, theta, phi):
        mat = unitary_of(StrategyParams(theta, phi))
        assert_allclose(mat.conj().T @ mat, np.eye(2), atol=1e-12)

    def test_returned_matrix_is_frozen(self):
        with pytest.raises(ValueError):
            unitary_of(QY)[0, 0] = 5.0


class TestOctantPoint:
    def test_vertices_are_the_named_corners(self):
        assert params_of_octant_point((1.0, 0.0, 0.0)) == COOPERATE
        assert params_of_octant_point((0.0, 1.0, 0.0)) == QY
        assert params_of_octant_point((0.0, 0.0, 1.0)) == DEFECT

    def test_round_off_below_zero_stays_in_the_domain(self):
        assert params_of_octant_point((-1e-17, -0.0, 1.0)) == DEFECT
        assert params_of_octant_point((1.0, -1e-17, -0.0)) == COOPERATE

    @settings(max_examples=200)
    @given(thetas, phis)
    def test_unitary_is_the_octant_mixture_of_c_qy_d(self, theta, phi):
        half = theta / 2.0
        x = (math.cos(half), math.sin(half) * math.cos(phi), math.sin(half) * math.sin(phi))
        mixture = x[0] * unitary_of(COOPERATE) + x[1] * unitary_of(QY) + x[2] * unitary_of(DEFECT)
        assert_allclose(unitary_of(StrategyParams(theta, phi)), mixture, atol=1e-15)
        assert_allclose(unitary_of(params_of_octant_point(x)), mixture, atol=1e-12)


class TestClassicalMixProb:
    @pytest.mark.parametrize(
        "theta,expected", [(0.0, 1.0), (math.pi, 0.0), (math.pi / 2, 0.5)]
    )
    def test_pure_and_even_points(self, theta, expected):
        assert classical_mix_prob(StrategyParams(theta, 0.0)) == pytest.approx(
            expected, abs=1e-15
        )

    @settings(max_examples=80, deadline=None)
    @given(theta=thetas)
    def test_phi_never_enters(self, theta):
        values = {
            classical_mix_prob(StrategyParams(theta, phi))
            for phi in (0.0, math.pi / 4, math.pi / 2)
        }
        assert len(values) == 1  # bitwise identical, not merely close


class TestParseStrategy:
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("C", COOPERATE),
            ("cooperate", COOPERATE),
            ("D", DEFECT),
            ("defect", DEFECT),
            ("QY", QY),
            ("qy", QY),
            ("U(pi,0)", QY),
            ("U(pi,pi/2)", DEFECT),
            ("u(0,0)", COOPERATE),
        ],
    )
    def test_named_and_explicit_tokens(self, token, expected):
        assert parse_strategy(token) == expected

    def test_decimal_angles(self):
        params = parse_strategy("U(1.5,0.25)")
        assert params == StrategyParams(1.5, 0.25)

    @pytest.mark.parametrize("token", ["X", "U(1)", "U(a,b)", "U(1,2,3)", "U 1 2", ""])
    def test_malformed_tokens(self, token):
        with pytest.raises(StrategySyntaxError):
            parse_strategy(token)

    def test_well_formed_but_out_of_domain(self):
        with pytest.raises(DomainError):
            parse_strategy("U(5,0)")


class TestStrategyToken:
    def test_named_points_print_short(self):
        assert strategy_token(COOPERATE) == "C"
        assert strategy_token(DEFECT) == "D"
        assert strategy_token(QY) == "QY"

    def test_generic_point_round_trips(self):
        params = StrategyParams(1.234567, 0.7654321)
        back = parse_strategy(strategy_token(params))
        assert back.theta == pytest.approx(params.theta, abs=1e-11)
        assert back.phi == pytest.approx(params.phi, abs=1e-11)
