"""Rate model and condition tests: the proof, and the sampled check against it.

The contact model's closed-form masses are cross-checked against
Monte Carlo integrals of its pointwise birth rate, and the birth
sampler is tested against the mixture density it claims to draw from.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from birthdeath import (
    EMPTY,
    BallRegion,
    BoxRegion,
    Configuration,
    ContactModel,
    DegenerateStateError,
    RateModel,
    UnsupportedExactEvaluation,
    sample_poisson_config,
    step,
    unit_ball_volume,
    validate_conditions,
)


def make_states(model, count, intensity=1.0, seed=100, max_size=None):
    center = model.immigration_region.center
    reach = model.immigration_region.radius + model.interaction_radius
    window = BoxRegion(
        tuple(c - reach for c in center), tuple(c + reach for c in center)
    )
    rng = np.random.default_rng(seed)
    states = [EMPTY, Configuration([center])]
    while len(states) < count:
        cfg = sample_poisson_config(intensity, window, rng)
        if max_size is None or len(cfg) <= max_size:
            states.append(cfg)
    return states


class TestContactModelRates:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ContactModel(immigration_intensity=0.0)
        with pytest.raises(ValueError):
            ContactModel(neighbor_intensity=-1.0)
        with pytest.raises(ValueError):
            ContactModel(baseline_death=-0.1)
        with pytest.raises(ValueError, match="birth floor"):
            ContactModel(immigration_intensity=5e-324)  # half of it underflows to 0
        with pytest.raises(ValueError):
            ContactModel(dimension=0)
        with pytest.raises(ValueError):
            ContactModel(immigration_center=(0.0, 0.0))  # dimension mismatch
        # Non-finite parameters (JSON reads 1e400 as inf), a dimension
        # that is not an integer, and birth masses that underflow to
        # zero or overflow.
        for name in ("interaction_radius", "immigration_intensity", "neighbor_intensity",
                     "baseline_death", "crowding_death", "immigration_radius"):
            for value in (math.inf, -math.inf, math.nan):
                with pytest.raises(ValueError):
                    ContactModel(**{name: value})
        for dimension in (math.inf, math.nan, 1.5, "2"):
            with pytest.raises(ValueError):
                ContactModel(dimension=dimension)
        assert ContactModel(dimension=2.0).dimension == 2
        with pytest.raises(ValueError):
            ContactModel(dimension=3, immigration_intensity=1e-300, immigration_radius=1e-10)
        with pytest.raises(ValueError):
            ContactModel(dimension=3, neighbor_intensity=1e-300, interaction_radius=1e-10)
        with pytest.raises(ValueError):
            ContactModel(dimension=2, interaction_radius=1e200)
        with pytest.raises(ValueError):
            ContactModel(dimension=400)

    @pytest.mark.parametrize("value", [True, False, np.True_, np.False_],
                             ids=["True", "False", "numpy-True", "numpy-False"])
    @pytest.mark.parametrize(
        "name",
        ["dimension", "interaction_radius", "immigration_intensity", "neighbor_intensity",
         "baseline_death", "crowding_death", "immigration_radius",
         "immigration_center"],
    )
    def test_boolean_parameters_rejected(self, name, value):
        # float() reads a boolean as 0 or 1; a model must not run on that.
        with pytest.raises(ValueError, match="boolean"):
            ContactModel(**{name: (value,) if name == "immigration_center" else value})

    def test_birth_rate_piecewise_values(self):
        m = ContactModel()
        state = Configuration([[0.0]])
        # inside both the immigration ball and the neighbor ball
        assert m.birth_rate((0.2,), state) == pytest.approx(0.8 + 0.1)
        # outside immigration, inside neighbor ball
        assert m.birth_rate((0.9,), state) == pytest.approx(0.1)
        # outside everything
        assert m.birth_rate((2.5,), state) == 0.0
        # boundary of the neighbor ball is closed
        assert m.birth_rate((1.0,), state) == pytest.approx(0.1)

    def test_total_birth_mass_closed_form(self):
        m = ContactModel(dimension=2, interaction_radius=0.7, immigration_radius=0.4)
        v = unit_ball_volume(2)
        for n in (0, 1, 4):
            pts = [[10.0 * k, 0.0] for k in range(n)]
            cfg = Configuration(pts)
            expected = 0.8 * v * 0.4**2 + n * 0.1 * v * 0.7**2
            assert m.total_birth_mass(cfg) == pytest.approx(expected, rel=1e-12)

    def test_total_birth_mass_matches_mc_integral(self):
        m = ContactModel()
        state = Configuration([[0.3], [-0.4]])
        window = BoxRegion((-1.6,), (1.6,))  # covers every component
        rng = np.random.default_rng(17)
        draws = 60_000
        total = 0.0
        total_sq = 0.0
        for _ in range(draws):
            v = m.birth_rate(tuple(float(c) for c in rng.uniform(window.lower, window.upper)), state)
            total += v
            total_sq += v * v
        mean = total / draws
        sigma = math.sqrt(max(total_sq / draws - mean * mean, 0.0) / draws)
        mc_mass = window.volume * mean
        assert abs(mc_mass - m.total_birth_mass(state)) <= 4 * window.volume * sigma

    def test_death_rates_with_crowding(self):
        m = ContactModel(crowding_death=0.5)
        cluster = Configuration([[0.0], [0.2], [0.4]])  # all pairwise within r=1
        assert m.death_rates(cluster) == [2.0, 2.0, 2.0]
        spread = Configuration([[0.0], [0.2], [5.0]])
        assert m.death_rates(spread) == [1.5, 1.5, 1.0]
        for p in spread:
            assert m.death_rate(p, spread) == m.death_rates(spread)[spread.points.index(p)]

    @pytest.mark.parametrize("crowding", [0.0, 0.5])
    def test_death_rate_of_an_absent_point_raises(self, crowding):
        with pytest.raises(ValueError, match=r"point \(5\.0,\) is not in the state"):
            ContactModel(crowding_death=crowding).death_rate((5.0,), Configuration([[0.0]]))

    @settings(max_examples=200)
    @given(data=st.data(), d=st.integers(1, 3), n=st.integers(0, 8),
           radius=st.sampled_from([0.25, 0.5, 1.0]), baseline=st.floats(0.0, 3.0),
           crowding=st.floats(1e-3, 3.0))
    def test_crowding_rates_equal_an_all_pairs_count(self, data, d, n, radius, baseline, crowding):
        # Quarter-grid coordinates put pairs exactly at the interaction radius.
        coord = st.integers(-6, 6).map(lambda k: k / 4.0)
        points = data.draw(st.lists(st.tuples(*[coord] * d), min_size=n, max_size=n, unique=True))
        m = ContactModel(dimension=d, interaction_radius=radius, baseline_death=baseline,
                         crowding_death=crowding)
        state = Configuration(points)
        pts = state.points
        want = [baseline + crowding * sum(1 for j, y in enumerate(pts) if j != i
                                          and math.dist(x, y) <= radius)
                for i, x in enumerate(pts)]
        assert m.death_rates(state) == want

    def test_death_rates_without_crowding_fast_path(self):
        m = ContactModel()
        cfg = Configuration([[0.0], [0.1], [0.2]])
        assert m.death_rates(cfg) == [1.0, 1.0, 1.0]

    def test_jump_rate_sup_dominates_samples(self):
        m = ContactModel(crowding_death=0.3)
        states = make_states(m, 30, seed=5, max_size=12)
        cap = m.jump_rate_sup(12)
        for state in states:
            assert m.jump_rate(state) <= cap + 1e-12

    def test_describe_is_a_stable_fingerprint(self):
        assert ContactModel().describe() == ContactModel().describe()
        assert ContactModel().describe() != ContactModel(neighbor_intensity=0.2).describe()


# Coordinates and radii, some on a quarter grid so that interval ends coincide.
_COORD = st.floats(-3.0, 3.0) | st.integers(-12, 12).map(lambda k: k / 4.0)
_RADIUS = st.floats(0.01, 2.0) | st.integers(1, 8).map(lambda k: k / 4.0)


def _piecewise_birth_mass(model, state, lo, up):
    """The d=1 birth mass over [lo, up] as a sum of gap times the rate at the gap's midpoint.

    The rate is constant between consecutive ends of the birth balls, so
    the sum over the sorted ends and the region's ends is exact up to rounding.
    """
    balls = [model.immigration_region] + [BallRegion(p, model.interaction_radius) for p in state]
    ends = sorted({lo, up} | {c for b in balls for c in (b.center[0] - b.radius, b.center[0] + b.radius)
                             if lo < c < up})
    return sum((b - a) * model.birth_rate(((a + b) / 2,), state) for a, b in zip(ends, ends[1:]))


class TestBirthMassInRegion:
    def test_none_region_is_exact_total(self):
        m = ContactModel()
        state = Configuration([[0.0]])
        assert m.birth_mass_in_region(state, None) == m.total_birth_mass(state)

    def test_inside_and_disjoint_are_exact(self):
        m = ContactModel()
        state = EMPTY
        inside = BallRegion((0.0,), 0.6)  # contains the whole immigration ball
        assert m.birth_mass_in_region(state, inside) == pytest.approx(0.8 * 2 * 0.5)
        faraway = BallRegion((10.0,), 0.5)
        assert m.birth_mass_in_region(state, faraway) == 0.0

    def test_partial_overlap_exact_in_d1(self):
        m = ContactModel()
        region = BoxRegion((0.25,), (2.0,))
        # immigration ball is [-0.5, 0.5]; overlap [0.25, 0.5] has length 0.25
        assert m.birth_mass_in_region(EMPTY, region) == pytest.approx(0.8 * 0.25)

    @pytest.mark.parametrize("d", [2, 3])
    def test_partial_overlap_raises_in_higher_dimensions(self, d):
        m = ContactModel(dimension=d)
        state = Configuration([[0.5] * d, [4.0] + [0.0] * (d - 1)])
        around = BoxRegion((-2.0,) * d, (5.5,) + (2.0,) * (d - 1))  # holds every birth ball
        assert m.birth_mass_in_region(state, around) == pytest.approx(m.total_birth_mass(state), rel=1e-12)
        assert m.birth_mass_in_region(state, BallRegion((20.0,) * d, 1.0)) == 0.0
        # The ball around the far point alone: exactly one neighbour ball inside, the rest disjoint.
        one = BallRegion((4.0,) + (0.0,) * (d - 1), 1.5)
        assert m.birth_mass_in_region(state, one) == m.neighbor_intensity * BallRegion((0.0,) * d, 1.0).volume
        for cut in (BoxRegion((0.0,) * d, (1.0,) * d), BallRegion((0.5,) * d, 0.25)):
            with pytest.raises(UnsupportedExactEvaluation):
                m.birth_mass_in_region(state, cut)

    def test_region_mass_never_exceeds_total(self):
        m = ContactModel()
        state = Configuration([[0.2], [-0.1]])
        region = BoxRegion((-2.0,), (2.0,))
        assert m.birth_mass_in_region(state, region) <= m.total_birth_mass(state) + 1e-12

    @pytest.mark.parametrize("model_d, region", [
        (2, BoxRegion((-5.0,), (5.0,))),
        (1, BoxRegion((-5.0, 0.0), (5.0, 0.1))),
        (1, BallRegion((0.0, 0.0), 1.0)),
    ], ids=["1-D box, 2-D model", "2-D box, 1-D model", "2-D ball, 1-D model"])
    def test_a_region_of_another_dimension_raises(self, model_d, region):
        # Zipped axis by axis, the 1-D box would give the 2-D model its whole immigration mass.
        with pytest.raises(ValueError, match=f"dimensions {region.dimension} and {model_d}"):
            ContactModel(dimension=model_d).birth_mass_in_region(EMPTY, region)

    @settings(max_examples=300)
    @given(data=st.data(), points=st.lists(_COORD, max_size=5, unique=True),
           radius=_RADIUS, immigration_radius=_RADIUS, center=_COORD,
           intensities=st.tuples(st.floats(0.01, 2.0), st.floats(0.01, 2.0)), ball=st.booleans())
    def test_d1_mass_equals_a_piecewise_sum(self, data, points, radius, immigration_radius, center,
                                            intensities, ball):
        m = ContactModel(interaction_radius=radius, immigration_intensity=intensities[0],
                         neighbor_intensity=intensities[1], immigration_center=[center],
                         immigration_radius=immigration_radius)
        state = Configuration([[x] for x in points])
        if ball:
            region = BallRegion((data.draw(_COORD),), data.draw(_RADIUS))
            lo, up = region.center[0] - region.radius, region.center[0] + region.radius
        else:
            lo = data.draw(_COORD)
            up = lo + data.draw(_RADIUS)
            region = BoxRegion((lo,), (up,))
        want = _piecewise_birth_mass(m, state, lo, up)
        assert m.birth_mass_in_region(state, region) == pytest.approx(want, rel=1e-12, abs=0.0)


class TestBirthSampler:
    def test_sampler_matches_mixture_density(self):
        # from {0}: density 0.8 on [-0.5, 0.5] plus 0.1 on [-1, 1]
        m = ContactModel()
        state = Configuration([[0.0]])
        rng = np.random.default_rng(23)
        draws = 20_000
        edges = np.linspace(-1.0, 1.0, 9)
        expected_mass = []
        for lo, hi in zip(edges[:-1], edges[1:]):
            imm = max(0.0, min(hi, 0.5) - max(lo, -0.5)) * 0.8
            nb = (hi - lo) * 0.1
            expected_mass.append(imm + nb)
        expected = np.array(expected_mass) / sum(expected_mass) * draws
        counts = np.zeros(8)
        for _ in range(draws):
            x = m.sample_birth_location(state, rng)[0]
            idx = min(int((x + 1.0) / 0.25), 7)
            counts[idx] += 1
        result = stats.chisquare(counts, expected)
        assert result.pvalue > 0.01

    def test_sampler_from_empty_lands_in_immigration_ball(self):
        m = ContactModel()
        rng = np.random.default_rng(29)
        for _ in range(300):
            x = m.sample_birth_location(EMPTY, rng)
            assert m.immigration_region.contains(x)

    def test_sampler_covers_all_neighbor_components(self):
        m = ContactModel(immigration_radius=0.05, immigration_intensity=0.05,
                         neighbor_intensity=0.2)
        state = Configuration([[5.0], [-5.0]])
        rng = np.random.default_rng(31)
        near_pos = near_neg = 0
        for _ in range(2000):
            x = m.sample_birth_location(state, rng)[0]
            if abs(x - 5.0) <= 1.0:
                near_pos += 1
            elif abs(x + 5.0) <= 1.0:
                near_neg += 1
        assert near_pos > 400 and near_neg > 400


class _SilentModel(ContactModel):
    """Contact model whose immigration clause is broken on purpose."""

    def birth_rate(self, location, state):
        radius = self.interaction_radius
        near = sum(1 for p in state if math.dist(location, p) <= radius)
        return self.neighbor_intensity * near


class TestValidateConditions:
    def test_default_model_passes_all_four(self):
        m = ContactModel()
        report = validate_conditions(m, 12, make_states(m, 40, max_size=12), seed=1)
        assert report.passed
        assert [c.passed for c in report.checks] == [True] * 4
        assert "PASS" in report.summary()

    @pytest.mark.parametrize("immigration, neighbor", [(0.8, 0.1), (0.1, 0.8), (0.3, 0.3)])
    def test_the_half_minimum_floor_passes(self, immigration, neighbor):
        # The floor is half the smaller intensity, whichever of the two that is.
        m = ContactModel(immigration_intensity=immigration, neighbor_intensity=neighbor)
        assert m.birth_floor == 0.5 * min(immigration, neighbor)
        report = validate_conditions(m, 10, make_states(m, 25, max_size=10), seed=2)
        assert report.passed

    def test_zero_death_floor_fails_condition_three(self):
        m = ContactModel(baseline_death=0.0)
        report = validate_conditions(m, 10, make_states(m, 25, max_size=10), seed=3)
        assert not report.passed
        failed = {c.index for c in report.checks if not c.passed}
        assert failed == {3}

    def test_broken_immigration_fails_condition_four(self):
        m = _SilentModel()
        report = validate_conditions(m, 10, make_states(m, 25, max_size=10), seed=4)
        assert not report.passed
        assert any(c.index == 4 and not c.passed for c in report.checks)

    def test_crowding_model_passes_with_declared_cap(self):
        m = ContactModel(crowding_death=0.4)
        report = validate_conditions(m, 14, make_states(m, 40, max_size=14), seed=5)
        assert report.passed

    def test_oversize_trial_state_rejected(self):
        m = ContactModel()
        big = Configuration([[float(k)] for k in range(6)])
        with pytest.raises(ValueError):
            validate_conditions(m, 5, [big], seed=6)
        # Condition 4 needs at least one probe, or its verdict rests on nothing.
        with pytest.raises(ValueError, match="probe_points"):
            validate_conditions(m, 5, [EMPTY], probe_points=0, seed=6)

    def test_csv_rows_cover_all_checks(self):
        m = ContactModel()
        report = validate_conditions(m, 8, make_states(m, 10, max_size=8), seed=7)
        rows = report.to_csv_rows()
        assert [row["condition"] for row in rows] == [1, 2, 3, 4]
        assert all(row["verdict"] == "PASS" for row in rows)


class TestProvedConditions:
    def test_readme_model_witnesses_are_the_proved_extremes(self):
        report = ContactModel().conditions(12)
        assert report.passed and report.states_checked is None
        # The birth-mass margin, the death cap and floor, and neighbor_intensity.
        assert [c.witness for c in report.checks] == [0.0, 1.0, 1.0, 0.1]
        assert "proved for all states (size <= 12)" in report.summary()

    @pytest.mark.parametrize(
        "params, failed",
        [({"baseline_death": 0.0}, {3}), ({"neighbor_intensity": 8e307}, {1}), ({"crowding_death": 1e308}, {2})],
        ids=["zero-death-floor", "birth-mass-overflow", "death-cap-overflow"],
    )
    def test_each_broken_parameter_fails_its_own_condition(self, params, failed):
        report = ContactModel(**params).conditions(12)
        assert {c.index for c in report.checks if not c.passed} == failed

    def test_a_crowded_cap_grows_with_the_size(self):
        report = ContactModel(crowding_death=0.5).conditions(5)
        assert report.checks[1].witness == 1.0 + 0.5 * 4
        assert ContactModel(crowding_death=0.5).conditions(0).checks[1].witness == 1.0

    @settings(max_examples=150, derandomize=True, database=None)
    @given(
        dimension=st.integers(1, 3),
        radius=st.floats(0.2, 2.0),
        immigration=st.floats(0.05, 5.0),
        neighbor=st.floats(0.05, 5.0),
        baseline=st.sampled_from([0.0, 0.5, 1.0]),
        crowding=st.sampled_from([0.0, 0.3, 2.0]),
        max_size=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sampled_validation_agrees_with_the_proof(
        self, dimension, radius, immigration, neighbor, baseline, crowding, max_size, seed
    ):
        model = ContactModel(dimension=dimension, interaction_radius=radius, immigration_intensity=immigration,
                             neighbor_intensity=neighbor, baseline_death=baseline, crowding_death=crowding)
        proof = model.conditions(max_size)
        # About three points per window, so states of at most max_size points are common.
        reach = model.immigration_region.radius + radius
        states = make_states(model, 12, intensity=3.0 / (2.0 * reach) ** dimension, seed=seed, max_size=max_size)
        sampled = validate_conditions(model, max_size, states, seed=seed)
        assert [c.passed for c in sampled.checks] == [c.passed for c in proof.checks]
        margin, max_rate, min_rate, min_birth = (c.witness for c in sampled.checks)
        _, cap, floor, least_birth = (c.witness for c in proof.checks)
        assert margin >= 0.0 and max_rate <= cap and min_rate >= floor and min_birth >= least_birth


class _FrozenModel(RateModel):
    """Degenerate model with no mass anywhere, for error-path tests."""

    def __init__(self):
        self.dimension = 1
        self.interaction_radius = 1.0
        self.immigration_region = BallRegion((0.0,), 0.5)
        self.birth_floor = 0.01
        self.birth_mass_slope = 0.0
        self.birth_mass_offset = 0.0

    def birth_rate(self, location, state):
        return 0.0

    def death_rate(self, point, state):
        return 0.0

    def total_birth_mass(self, state):
        return 0.0

    def sample_birth_location(self, state, rng):
        raise AssertionError("no birth mass to sample")

    def death_rate_inf(self):
        return 0.0

    def death_rate_sup(self, max_size):
        return 0.0

    def describe(self):
        return "frozen()"


def test_degenerate_state_has_zero_jump_rate_and_cannot_step():
    model = _FrozenModel()
    assert model.jump_rate(EMPTY) == 0.0
    with pytest.raises(DegenerateStateError):
        step(EMPTY, model, 0)
    live = ContactModel()
    assert live.jump_rate(EMPTY) == pytest.approx(0.8)
    assert step(EMPTY, live, 0)[1].kind == "birth"
