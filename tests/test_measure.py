"""Reference-measure evaluation and Poisson sampling tests.

Exact values are frozen from closed forms computed independently:
a layer-n all-in-box set weighs vol(box)^n / n!, a product of disjoint
boxes weighs the product of volumes, and the empty singleton weighs 1.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birthdeath import measure
from birthdeath import (
    EMPTY,
    AllInRegion,
    BallRegion,
    BallSet,
    BoxRegion,
    Configuration,
    EmptySingleton,
    LayerSet,
    MeasureEstimate,
    ProductOfDisjointBoxes,
    RhoBall,
    UnsupportedExactEvaluation,
    distance_rho,
    in_ball,
    lp_measure,
    lp_measure_estimate,
    lp_measure_exact,
    sample_in_ball,
    sample_poisson_config,
)
from conftest import alarm

UNIT = BoxRegion((0.0,), (1.0,))


class TestRegions:
    def test_box_validation_and_volume(self):
        box = BoxRegion((0.0, -1.0), (2.0, 1.0))
        assert box.volume == 4.0
        assert box.contains((1.0, 0.0)) and not box.contains((3.0, 0.0))
        with pytest.raises(ValueError):
            BoxRegion((0.0,), (0.0,))
        with pytest.raises(ValueError):
            BoxRegion((0.0, 0.0), (1.0,))

    def test_ball_region_volume_matches_formula(self):
        ball = BallRegion((0.0, 0.0), 2.0)
        assert ball.volume == pytest.approx(math.pi * 4.0, rel=1e-12)
        assert ball.contains((2.0, 0.0))
        assert not ball.contains((2.0 + 1e-12, 0.0))

    def test_box_sampling_stays_inside(self):
        rng = np.random.default_rng(3)
        box = BoxRegion((-1.0, 2.0), (1.0, 5.0))
        for _ in range(200):
            assert box.contains(box.sample(rng))

    def test_ball_sampling_uniformity_moments(self):
        # in d=2 the radius of a uniform draw has E[R] = 2r/3; check 4 sigma
        rng = np.random.default_rng(4)
        draws = 4000
        total = 0.0
        for _ in range(draws):
            p = sample_in_ball((0.0, 0.0), 1.0, rng)
            r = math.hypot(*p)
            assert r <= 1.0
            total += r
        mean = total / draws
        sigma = math.sqrt(1.0 / 18.0 / draws)  # Var(R) = 1/18 for d=2
        assert abs(mean - 2.0 / 3.0) <= 4 * sigma

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_ball_draw_in_python_floats_equals_numpy_scalars(self, dimension):
        # The point is built from direction.tolist(); the reference
        # repeats the draws on a twin generator and builds it from NumPy
        # scalars, as the ball draw once did.
        mine, twin = np.random.default_rng(dimension), np.random.default_rng(dimension)
        center, radius = (0.3, -1.7, 2.9)[:dimension], 0.6
        for _ in range(100_000):
            point = sample_in_ball(center, radius, mine)
            while True:
                direction = twin.standard_normal(dimension)
                norm = math.sqrt(float(direction @ direction))
                if norm > 0.0:
                    break
            scale = radius * twin.random() ** (1.0 / dimension) / norm
            assert point == tuple(float(c + scale * v) for c, v in zip(center, direction))
        assert all(type(c) is float for c in point)

    @settings(max_examples=150)
    @given(
        dimension=st.integers(2, 5),
        coords=st.lists(st.floats(-1e3, 1e3), min_size=5, max_size=5),
        radius=st.floats(1e-6, 1e3),
        seed=st.integers(0, 2**63),
        draws=st.integers(1, 20),
    )
    def test_ball_draw_equals_its_matmul_form(self, dimension, coords, radius, seed, draws):
        # The norm is taken with ndarray.dot; the reference is the draw
        # as it was written with ``@`` and a generator expression.
        def matmul_draw(center, radius, rng):
            d = len(center)
            while True:
                direction = rng.standard_normal(d)
                norm = math.sqrt(float(direction @ direction))
                if norm > 0.0:
                    break
            scale = radius * rng.random() ** (1.0 / d) / norm
            return tuple(c + scale * v for c, v in zip(center, direction.tolist()))

        center = tuple(coords[:dimension])
        mine, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(draws):
            got, want = sample_in_ball(center, radius, mine), matmul_draw(center, radius, twin)
            assert [c.hex() for c in got] == [c.hex() for c in want]
            assert mine.bit_generator.state == twin.bit_generator.state

    def test_ball_sampling_d1_covers_both_sides(self):
        rng = np.random.default_rng(5)
        xs = [sample_in_ball((0.0,), 1.0, rng)[0] for _ in range(500)]
        assert min(xs) < -0.5 and max(xs) > 0.5
        assert all(abs(x) <= 1.0 for x in xs)


class TestLayerSets:
    def test_shape_layer_consistency(self):
        with pytest.raises(ValueError):
            LayerSet(1, EmptySingleton())
        with pytest.raises(ValueError):
            LayerSet(2, ProductOfDisjointBoxes((UNIT,)))
        with pytest.raises(ValueError):
            LayerSet(2, BallSet(RhoBall(Configuration([[0.0]]), 1.0)))
        with pytest.raises(ValueError):
            LayerSet(-1, EmptySingleton())

    def test_product_boxes_must_be_disjoint(self):
        with pytest.raises(ValueError):
            ProductOfDisjointBoxes((BoxRegion((0.0,), (1.0,)), BoxRegion((0.5,), (1.5,))))
        # touching at a face is fine (zero-volume overlap)
        ProductOfDisjointBoxes((BoxRegion((0.0,), (1.0,)), BoxRegion((1.0,), (2.0,))))

    def test_contains_product_requires_one_point_per_box(self):
        shape = ProductOfDisjointBoxes(
            (BoxRegion((0.0,), (1.0,)), BoxRegion((2.0,), (3.0,)))
        )
        ls = LayerSet(2, shape)
        assert ls.contains(Configuration([[0.5], [2.5]]))
        assert not ls.contains(Configuration([[0.2], [0.8]]))
        assert not ls.contains(Configuration([[0.5], [4.0]]))
        assert not ls.contains(Configuration([[0.5]]))

    def test_contains_product_matches_points_on_a_shared_face(self):
        # The point on the shared face must take the box its neighbor leaves free.
        left, right = BoxRegion((0.0,), (1.0,)), BoxRegion((1.0,), (2.0,))
        assert LayerSet(2, ProductOfDisjointBoxes((left, right))).contains(
            Configuration([[0.5], [1.0]])
        )
        mirrored = LayerSet(2, ProductOfDisjointBoxes((right, left)))
        assert mirrored.contains(Configuration([[1.0], [1.5]]))
        assert mirrored.contains(Configuration([[0.5], [1.0]]))
        assert not mirrored.contains(Configuration([[0.25], [0.5]]))

    def test_contains_product_of_d2_boxes_sharing_a_face(self):
        shape = ProductOfDisjointBoxes(
            (BoxRegion((0.0, 0.0), (1.0, 1.0)), BoxRegion((1.0, 0.0), (2.0, 1.0)))
        )
        ls = LayerSet(2, shape)
        assert ls.contains(Configuration([[0.5, 0.5], [1.0, 0.5]]))
        assert ls.contains(Configuration([[1.0, 0.2], [1.0, 0.7]]))
        assert ls.contains(Configuration([[1.0, 0.2], [1.5, 0.7]]))
        assert not ls.contains(Configuration([[0.2, 0.2], [0.5, 0.7]]))
        assert not ls.contains(Configuration([[0.5, 0.5], [1.0, 1.5]]))

    def test_contains_all_in_region(self):
        ls = LayerSet(2, AllInRegion(UNIT))
        assert ls.contains(Configuration([[0.25], [0.75]]))
        assert not ls.contains(Configuration([[0.25], [1.75]]))
        assert not ls.contains(Configuration([[0.25]]))

    def test_wrong_dimension_point_raises(self):
        # A 2-D point used to be cut to its first coordinate and counted in.
        wide = Configuration([[0.5, 99.0]])
        with pytest.raises(ValueError):
            LayerSet(1, AllInRegion(UNIT)).contains(wide)
        with pytest.raises(ValueError):
            LayerSet(1, ProductOfDisjointBoxes((UNIT,))).contains(wide)
        with pytest.raises(ValueError):
            UNIT.contains((0.5, 99.0))


class _RecordingShape(measure.Shape):
    """A shape that fits every layer, admits everything and records the sizes it is asked about."""

    fixed_layer = None

    def __init__(self):
        self.sizes = []

    def contains(self, config, layer):
        self.sizes.append(len(config))
        return True

    def label(self, layer):
        return "recording"

    def exact_measure(self, layer):
        return 1.0


def _member_with_size_test(layer_set, config):
    """Membership decided as each shape once did it, with its own size test, by brute force."""
    shape, points = layer_set.shape, config.points
    if isinstance(shape, EmptySingleton):
        return not points
    if isinstance(shape, BallSet):
        return distance_rho(config, shape.ball.center) <= shape.ball.radius
    if len(points) != layer_set.layer:
        return False
    if isinstance(shape, AllInRegion):
        return all(shape.region.contains(p) for p in points)
    return any(all(box.contains(p) for box, p in zip(boxes, points))
               for boxes in itertools.permutations(shape.boxes))


def _gate_sets(d):
    pad = (0.0,) * (d - 1)
    boxes = [BoxRegion((lo,) + pad, (lo + 0.5,) + (1.0,) * (d - 1)) for lo in (0.0, 0.5, 1.0)]
    centers = [(0.25,) + (0.5,) * (d - 1), (0.75,) + pad, (1.25,) + (0.5,) * (d - 1)]
    sets = [LayerSet(0, EmptySingleton())]
    for layer in (1, 2, 3):
        sets.append(LayerSet(layer, AllInRegion(BoxRegion((0.0,) * d, (1.0,) * d))))
        sets.append(LayerSet(layer, ProductOfDisjointBoxes(tuple(boxes[:layer]))))
        sets.append(LayerSet(layer, BallSet(RhoBall(Configuration(centers[:layer]), 0.375))))
    return sets


class TestLayerSetGate:
    def test_off_layer_configurations_never_reach_the_shape(self):
        shape = _RecordingShape()
        layer_set = LayerSet(2, shape)
        configs = [Configuration([[float(k)] for k in range(size)]) for size in range(5)]
        assert [layer_set.contains(c) for c in configs] == [False, False, True, False, False]
        assert shape.sizes == [2]

    @pytest.mark.parametrize("d", [1, 2])
    def test_shapes_answer_as_with_their_own_size_tests(self, d):
        # Coordinates on an eighths grid put points on box faces and ball boundaries.
        rng = np.random.default_rng(40 + d)
        for layer_set in _gate_sets(d):
            answers = set()
            for size in range(layer_set.layer + 3):
                for _ in range(150):
                    grid = rng.integers(-2, 13, size=(size, d)) / 8.0
                    config = Configuration({tuple(row) for row in grid.tolist()})
                    want = _member_with_size_test(layer_set, config)
                    assert layer_set.contains(config) == want, (layer_set.label(), config)
                    answers.add(want)
            assert answers == {False, True}, layer_set.label()


class TestExactMeasure:
    def test_empty_singleton_is_unit_mass(self):
        assert lp_measure_exact(LayerSet(0, EmptySingleton())) == 1.0

    def test_all_in_region_layer_values(self):
        assert lp_measure_exact(LayerSet(1, AllInRegion(UNIT))) == 1.0
        assert lp_measure_exact(LayerSet(2, AllInRegion(UNIT))) == 0.5
        assert lp_measure_exact(LayerSet(3, AllInRegion(UNIT))) == pytest.approx(1.0 / 6.0)
        wide = BoxRegion((0.0,), (2.0,))
        assert lp_measure_exact(LayerSet(2, AllInRegion(wide))) == 2.0

    def test_product_of_boxes_value(self):
        shape = ProductOfDisjointBoxes(
            (BoxRegion((0.0,), (1.0,)), BoxRegion((2.0,), (4.0,)))
        )
        assert lp_measure_exact(LayerSet(2, shape)) == 2.0

    def test_ball_sets_have_no_closed_form(self):
        ball = RhoBall(Configuration([[0.0]]), 0.5)
        with pytest.raises(UnsupportedExactEvaluation):
            lp_measure_exact(LayerSet(1, BallSet(ball)))

    def test_additivity_over_disjoint_products(self):
        a = LayerSet(1, ProductOfDisjointBoxes((BoxRegion((0.0,), (1.0,)),)))
        b = LayerSet(1, ProductOfDisjointBoxes((BoxRegion((2.0,), (2.5,)),)))
        union_window = BoxRegion((0.0,), (2.5,))
        est = lp_measure_estimate(
            1,
            union_window,
            lambda cfg: a.contains(cfg) or b.contains(cfg),
            samples=40_000,
            seed=12,
        )
        expected = lp_measure_exact(a) + lp_measure_exact(b)
        assert abs(est.value - expected) <= 4 * est.std_error


    def test_all_in_region_measure_beyond_the_float_range(self):
        box = BoxRegion((0.0,), (10.0,))
        # Finite as a quotient of floats: the value is unchanged.
        assert lp_measure_exact(LayerSet(170, AllInRegion(box))) == 10.0**170 / math.factorial(170)
        # 171! and 10**400 leave the float range, the quotients do not
        # or fall below it; a huge box leaves it for good.
        exact = float(Fraction(10) ** 171 / math.factorial(171))
        assert lp_measure_exact(LayerSet(171, AllInRegion(box))) == pytest.approx(exact, rel=1e-12)
        assert lp_measure_exact(LayerSet(400, AllInRegion(box))) == 0.0
        assert lp_measure_exact(LayerSet(200, AllInRegion(UNIT))) == 0.0
        huge = BoxRegion((-1e300,), (1e300,))
        assert lp_measure_exact(LayerSet(2, AllInRegion(huge))) == math.inf

    def test_shapes_label_their_layer_sets(self):
        assert LayerSet(0, EmptySingleton()).label() == "empty"
        ball = RhoBall(Configuration([[0.25], [-0.5]]), 0.1)
        assert LayerSet(2, BallSet(ball)).label() == "ball(center=[[-0.5];[0.25]], radius=0.1)"
        assert LayerSet(3, AllInRegion(UNIT)).label() == "all_in_region(layer=3, lower=[0.0], upper=[1.0])"
        boxes = ProductOfDisjointBoxes((UNIT, BoxRegion((2.0,), (3.0,))))
        assert LayerSet(2, boxes).label() == "product_boxes([0.0]..[1.0];[2.0]..[3.0])"


class TestEstimate:
    def test_layer0_is_exact(self):
        est = lp_measure_estimate(0, UNIT, lambda cfg: len(cfg) == 0, samples=10, seed=0)
        assert est.value == 1.0 and est.std_error == 0.0
        est = lp_measure_estimate(0, UNIT, lambda cfg: False, samples=10, seed=0)
        assert est.value == 0.0

    def test_always_true_layer1_hits_volume(self):
        est = lp_measure_estimate(1, UNIT, lambda cfg: True, samples=1000, seed=1)
        assert est.value == 1.0 and est.hits == 1000 and est.std_error == 0.0

    def test_matches_exact_on_box_set(self):
        inner = BoxRegion((0.2,), (0.8,))
        target = LayerSet(2, AllInRegion(inner))
        est = lp_measure_estimate(2, UNIT, target.contains, samples=60_000, seed=2)
        exact = lp_measure_exact(target)  # 0.6^2/2 = 0.18
        assert exact == pytest.approx(0.18)
        assert abs(est.value - exact) <= 4 * est.std_error

    def test_ball_example_frozen_oracle(self):
        # two uniform points in [0,1] land within 0.1 of {0.25, 0.75} in
        # the bottleneck sense iff one hits [0.15,0.35] and the other
        # [0.65,0.85]: probability 2*(0.2*0.2), times vol^2/2! = 0.04
        ball = RhoBall(Configuration([[0.25], [0.75]]), 0.1)
        est = lp_measure_estimate(
            2, UNIT, lambda cfg: in_ball(cfg, ball), samples=50_000, seed=3
        )
        assert abs(est.value - 0.04) <= 3 * est.std_error

    def test_sym_consistency_product_boxes(self):
        # the ordered-tuple measure of the preimage under the
        # order-forgetting projection is n! times the layer measure;
        # estimated by drawing ordered tuples directly
        rng = np.random.default_rng(8)
        for n in (1, 2, 3):
            boxes = tuple(
                BoxRegion((2.0 * k,), (2.0 * k + 1.0,)) for k in range(n)
            )
            layer_set = LayerSet(n, ProductOfDisjointBoxes(boxes))
            window_lo, window_hi = 0.0, 2.0 * (n - 1) + 1.0
            volume = (window_hi - window_lo) ** n
            draws = 40_000
            tuples = rng.uniform(window_lo, window_hi, size=(draws, n))
            hits = 0
            for row in tuples:
                pts = [(float(x),) for x in row]
                if len(set(pts)) < n:
                    continue
                if layer_set.contains(Configuration(pts)):
                    hits += 1
            frac = hits / draws
            ordered_measure = volume * frac
            expected = math.factorial(n) * lp_measure_exact(layer_set)
            sigma = volume * math.sqrt(max(frac * (1 - frac), 1e-12) / draws)
            assert abs(ordered_measure - expected) <= 4 * sigma

    def test_scale_beyond_the_float_range(self):
        # 10**400 and 400! both overflow a float; the scale underflows to 0.
        est = lp_measure_estimate(400, BoxRegion((0.0,), (10.0,)), lambda cfg: True, samples=3, seed=0)
        assert est.value == 0.0 and est.hits == 3
        # A scale past the float range is infinite, and no hit is still no mass.
        huge = BoxRegion((-1e300,), (1e300,))
        assert lp_measure_estimate(2, huge, lambda cfg: False, samples=3, seed=0).value == 0.0
        est = lp_measure_estimate(2, huge, lambda cfg: cfg.points[0][0] < 0, samples=40, seed=0)
        assert 0 < est.hits < 40 and est.value == est.std_error == math.inf

    def test_deterministic_for_a_reused_seed_sequence(self):
        ball = RhoBall(Configuration([[0.4], [0.6]]), 0.15)
        kwargs = dict(samples=5000, seed=21)
        first = lp_measure_estimate(2, UNIT, lambda c: in_ball(c, ball), **kwargs)
        second = lp_measure_estimate(2, UNIT, lambda c: in_ball(c, ball), **kwargs)
        assert first == second
        root = np.random.SeedSequence(21)
        third = lp_measure_estimate(2, UNIT, lambda c: in_ball(c, ball), 5000, seed=root)
        fourth = lp_measure_estimate(2, UNIT, lambda c: in_ball(c, ball), 5000, seed=root)
        assert third == fourth == first

    def test_wrong_dimension_window_raises(self):
        square = BoxRegion((0.0, 0.0), (1.0, 1.0))
        with pytest.raises(ValueError):
            lp_measure_estimate(1, square, LayerSet(1, AllInRegion(UNIT)).contains, 100, seed=1)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            lp_measure_estimate(-1, UNIT, lambda c: True, samples=10)
        with pytest.raises(ValueError):
            lp_measure_estimate(1, UNIT, lambda c: True, samples=0)


class TestLayerNumbers:
    BOX = AllInRegion(BoxRegion((0.0,), (2.0,)))

    @pytest.mark.parametrize("layer", [2.9, 1.7, True, np.True_, -1, -2.0, math.nan, math.inf, "2"])
    def test_fractional_boolean_and_negative_layers_raise(self, layer):
        # 2.9 used to be cut to layer 2 (measure 2.0) and True read as layer 1.
        with pytest.raises(ValueError, match="layer must be a nonnegative integer"):
            LayerSet(layer, self.BOX)
        with pytest.raises(ValueError, match="layer must be a nonnegative integer"):
            lp_measure_estimate(layer, UNIT, lambda c: True, samples=10, seed=0)

    @pytest.mark.parametrize("layer", [2, np.int64(2), np.uint8(2), 2.0, np.float64(2.0)])
    def test_integral_layers_are_read_as_ints(self, layer):
        layer_set = LayerSet(layer, self.BOX)
        assert type(layer_set.layer) is int and layer_set == LayerSet(2, self.BOX)
        assert lp_measure_exact(layer_set) == 2.0
        predicate = LayerSet(2, AllInRegion(BoxRegion((0.0,), (0.5,)))).contains
        expected = lp_measure_estimate(2, UNIT, predicate, samples=200, seed=4)
        assert lp_measure_estimate(layer, UNIT, predicate, samples=200, seed=4) == expected


class TestSampleCounts:
    @pytest.mark.parametrize("samples", [True, np.True_, 2.5, 0, -1, 0.0, math.nan, math.inf, "3"])
    def test_boolean_fractional_and_small_counts_raise(self, samples):
        # True and 2.5 used to raise TypeError from NumPy, not a ValueError naming the field.
        with pytest.raises(ValueError, match="samples must be an integer of at least 1"):
            lp_measure_estimate(1, UNIT, lambda c: True, samples, seed=0)
        with pytest.raises(ValueError, match="samples must be an integer of at least 1"):
            lp_measure_estimate(0, UNIT, lambda c: True, samples, seed=0)
        # A closed form takes no samples, but a bad count is still refused.
        with pytest.raises(ValueError, match="samples must be an integer of at least 1"):
            lp_measure(LayerSet(0, EmptySingleton()), samples, seed=0)

    @pytest.mark.parametrize("samples", [np.int64(300), np.uint16(300), 300.0, np.float64(300.0)])
    def test_integral_counts_are_read_as_ints(self, samples):
        # np.int64(3) used to come back as the result's samples, with a np.float64 value.
        predicate = LayerSet(2, AllInRegion(BoxRegion((0.0,), (0.5,)))).contains
        expected = lp_measure_estimate(2, UNIT, predicate, 300, seed=4)
        got = lp_measure_estimate(2, UNIT, predicate, samples, seed=4)
        assert got == expected and 0 < got.hits < 300
        assert [type(v) for v in (got.value, got.std_error, got.samples, got.hits)] == [float, float, int, int]
        assert type(lp_measure_estimate(0, UNIT, lambda c: True, samples).samples) is int


BALL_D1 = LayerSet(2, BallSet(RhoBall(Configuration([[0.25], [0.75]]), 0.1)))
BALL_D2 = LayerSet(2, BallSet(RhoBall(Configuration([[0.0, 0.0], [0.5, 0.25]]), 0.2)))


class TestLpMeasure:
    @pytest.mark.parametrize(
        "layer_set",
        [
            LayerSet(0, EmptySingleton()),
            LayerSet(3, AllInRegion(BoxRegion((0.0,), (2.0,)))),
            LayerSet(2, ProductOfDisjointBoxes((UNIT, BoxRegion((2.0,), (4.0,))))),
        ],
        ids=["empty", "all_in_region", "product_boxes"],
    )
    def test_closed_forms_take_no_samples(self, layer_set):
        assert lp_measure(layer_set, 1000, seed=1) == MeasureEstimate(lp_measure_exact(layer_set), 0.0, 0, 0)

    @pytest.mark.parametrize("layer_set", [BALL_D1, BALL_D2], ids=["d1", "d2"])
    def test_a_ball_is_estimated_over_its_bounding_box(self, layer_set):
        seed = np.random.SeedSequence(5, spawn_key=(1,))
        window = measure.ball_window(layer_set.shape.ball)
        expected = lp_measure_estimate(layer_set.layer, window, layer_set.contains, 4000, seed)
        result = lp_measure(layer_set, 4000, seed)
        assert result == expected and result.samples == 4000 and result.hits > 0

    def test_a_wider_window_is_used_as_given(self):
        wide = BoxRegion((-1.0,), (2.0,))
        expected = lp_measure_estimate(2, wide, BALL_D1.contains, 4000, seed=6)
        assert lp_measure(BALL_D1, 4000, seed=6, window=wide) == expected
        assert expected != lp_measure(BALL_D1, 4000, seed=6)

    @pytest.mark.parametrize(
        "window",
        [BoxRegion((0.2,), (0.9,)), BoxRegion((0.1,), (0.8,)), BoxRegion((2.0,), (3.0,))],
        ids=["cuts-below", "cuts-above", "misses"],
    )
    def test_a_window_missing_part_of_the_ball_box_raises(self, window):
        # The ball's box is [0.15, 0.85].
        with pytest.raises(ValueError, match="window must hold the ball's bounding box"):
            lp_measure(BALL_D1, 100, seed=1, window=window)

    @pytest.mark.parametrize(
        "layer_set",
        [
            LayerSet(0, EmptySingleton()),
            LayerSet(1, AllInRegion(UNIT)),
            LayerSet(1, ProductOfDisjointBoxes((UNIT,))),
        ],
        ids=["empty", "all_in_region", "product_boxes"],
    )
    def test_a_window_with_a_closed_form_raises(self, layer_set):
        # The window used to be ignored and the exact value returned.
        for window in (BoxRegion((5.0,), (6.0,)), UNIT):
            with pytest.raises(ValueError, match=r"^window is taken only by a ball"):
                lp_measure(layer_set, 100, seed=1, window=window)

    def test_estimates_call_the_module_estimator(self, monkeypatch):
        # A patch of measure.lp_measure_estimate, as a tracer makes, sees every estimate.
        calls = []
        estimate = measure.lp_measure_estimate

        def recording(*args, **kwargs):
            calls.append((args, kwargs))
            return estimate(*args, **kwargs)

        monkeypatch.setattr(measure, "lp_measure_estimate", recording)
        seed = np.random.SeedSequence(3)
        lp_measure(LayerSet(0, EmptySingleton()), 50, seed)
        lp_measure(BALL_D1, 50, seed)
        window = measure.ball_window(BALL_D1.shape.ball)
        assert calls == [((2, window, BALL_D1.contains, 50, seed), {})]


def reference_estimate(layer, window, predicate, samples, seed):
    """The estimator's per-sample loop before NumPy sorted the sample block."""
    scale = window.volume ** layer / math.factorial(layer)
    rng = np.random.default_rng(seed)
    d = window.dimension
    hits = 0
    coords = rng.uniform(window.lower, window.upper, size=(samples, layer, d)).tolist()
    for rows in coords:
        pts = sorted(tuple(row) for row in rows)
        while any(a == b for a, b in zip(pts, pts[1:])):
            pts = sorted(
                tuple(map(float, row))
                for row in rng.uniform(window.lower, window.upper, size=(layer, d))
            )
        if predicate(Configuration._wrap(tuple(pts))):
            hits += 1
    return scale * (hits / samples), hits


class _EighthsGenerator(np.random.Generator):
    """A generator whose uniforms are multiples of 1/8, so samples repeat points."""

    def uniform(self, low=0.0, high=1.0, size=None):
        return np.floor(super().uniform(low, high, size) * 8.0) / 8.0


class TestEstimateMatchesReference:
    windows = {
        1: BoxRegion((0.0,), (1.0,)),
        2: BoxRegion((0.0, -0.5), (1.0, 0.5)),
        3: BoxRegion((0.0, -0.5, 2.0), (1.0, 0.5, 2.5)),
    }

    def predicates(self, d, layer):
        window = self.windows[d]
        inner = BoxRegion(
            tuple(lo + 0.2 for lo in window.lower), tuple(up - 0.2 for up in window.upper)
        )
        center = Configuration(
            [tuple(lo + (k + 0.5) / layer for lo in window.lower) for k in range(layer)]
        )
        return {
            "all_in_region": LayerSet(layer, AllInRegion(inner)).contains,
            "ball": LayerSet(layer, BallSet(RhoBall(center, 0.3))).contains,
            "always": lambda c: True,
        }

    def assert_matches_reference(self, layer, window, predicate, samples, make_seed):
        """Same value, hits and sequence of predicate arguments; ``make_seed`` gives each side its seed."""
        seen, expected = [], []
        got = lp_measure_estimate(
            layer, window, lambda c: seen.append(c.points) or predicate(c), samples, seed=make_seed()
        )
        want = reference_estimate(
            layer, window, lambda c: expected.append(c.points) or predicate(c), samples, make_seed()
        )
        assert (got.value, got.hits) == want
        assert seen == expected and len(seen) == samples
        assert all(len(set(points)) == layer for points in seen)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("layer", [1, 2, 3, 4, 5, 6])
    def test_hits_and_value_are_bit_identical(self, d, layer):
        window = self.windows[d]
        for k, predicate in enumerate(self.predicates(d, layer).values()):
            seed = 1000 * d + 10 * layer + k
            got = lp_measure_estimate(layer, window, predicate, 2000, seed=seed)
            assert (got.value, got.hits) == reference_estimate(layer, window, predicate, 2000, seed)

    @pytest.mark.parametrize("block", [1, 7, 333])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_block_size_does_not_change_the_estimate(self, d, block, monkeypatch):
        # 333 does not divide the 2000 samples, so the last block is short.
        monkeypatch.setattr(measure, "_SAMPLE_BLOCK", block)
        for layer in (2, 5):
            for k, predicate in enumerate(self.predicates(d, layer).values()):
                seed = 5000 + 1000 * d + 10 * layer + k
                self.assert_matches_reference(layer, self.windows[d], predicate, 2000, lambda: seed)

    @pytest.mark.parametrize("d", [1, 2])
    def test_duplicate_redraws_across_blocks(self, d, monkeypatch):
        # Eighths make repeated points, and so redraws, common; small
        # blocks put redrawn samples on both sides of block boundaries.
        monkeypatch.setattr(measure, "_SAMPLE_BLOCK", 7)
        for predicate in self.predicates(d, 4).values():
            self.assert_matches_reference(
                4, self.windows[d], predicate, 500, lambda: _EighthsGenerator(np.random.PCG64(d))
            )

    @settings(max_examples=60)
    @given(
        d=st.integers(1, 3),
        layer=st.integers(1, 6),
        samples=st.integers(1, 300),
        block=st.integers(1, 400),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_eighths_draws_match_the_reference(self, d, layer, samples, block, seed):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(measure, "_SAMPLE_BLOCK", block)
            for predicate in self.predicates(d, layer).values():
                self.assert_matches_reference(
                    layer, self.windows[d], predicate, samples,
                    lambda: _EighthsGenerator(np.random.PCG64(seed)),
                )


class TestRedrawLimit:
    """A window with too few doubles for the distinct points asked of it raises instead of looping."""

    def test_estimate_on_a_two_double_window_raises(self):
        # [0, 5e-324] holds two doubles, so three distinct points never come.
        with alarm(5), pytest.raises(ValueError, match="cannot hold 3 distinct points"):
            lp_measure_estimate(3, BoxRegion((0.0,), (5e-324,)), lambda c: True, 10, seed=1)

    def test_poisson_draw_on_a_two_double_window_raises(self):
        window = BoxRegion((1.0,), (math.nextafter(1.0, 2.0),))
        with alarm(5), pytest.raises(ValueError, match="distinct points"):
            sample_poisson_config(1e17, window, 1)


class TestTraceContract:
    @pytest.mark.parametrize(
        "layer_set",
        [BALL_D1, LayerSet(3, BallSet(RhoBall(Configuration([[0.0, 0.0], [0.5, 0.25], [1.0, -0.25]]), 0.3)))],
        ids=["d1", "d2"],
    )
    def test_one_predicate_and_one_in_ball_call_per_sample(self, layer_set, monkeypatch):
        # A traced benchmark run counts both calls per sample, and patches
        # measure.in_ball after the layer set is built, as done here.
        events = []
        real_in_ball = measure.in_ball

        def counted_in_ball(config, ball):
            events.append(("in_ball", config.points))
            return real_in_ball(config, ball)

        def predicate(config):
            events.append(("predicate", config.points))
            return layer_set.contains(config)

        monkeypatch.setattr(measure, "in_ball", counted_in_ball)
        window = measure.ball_window(layer_set.shape.ball)
        got = lp_measure_estimate(layer_set.layer, window, predicate, 5000, seed=9)
        order = []
        want = reference_estimate(
            layer_set.layer, window,
            lambda c: order.append(c.points) or real_in_ball(c, layer_set.shape.ball), 5000, 9,
        )
        assert (got.value, got.hits) == want and got.hits > 0
        assert events == [(kind, points) for points in order for kind in ("predicate", "in_ball")]


class TestPoissonSampler:
    def test_points_inside_window_and_distinct(self):
        rng = np.random.default_rng(31)
        window = BoxRegion((0.0, 0.0), (2.0, 1.0))
        for _ in range(100):
            cfg = sample_poisson_config(1.5, window, rng)
            pts = cfg.points
            assert len(set(pts)) == len(pts)
            for p in pts:
                assert window.contains(p)

    def test_count_moments(self):
        rng = np.random.default_rng(32)
        window = BoxRegion((0.0,), (1.0,))
        z = 2.0
        draws = 10_000
        counts = [len(sample_poisson_config(z, window, rng)) for _ in range(draws)]
        mean = sum(counts) / draws
        var = sum((c - mean) ** 2 for c in counts) / draws
        # Poisson(2): sd of the sample mean is sqrt(2/draws)
        assert abs(mean - z) <= 4 * math.sqrt(z / draws)
        # sample variance of Poisson(z): Var = z + 2z^2 over draws
        assert abs(var - z) <= 4 * math.sqrt((z + 2 * z * z) / draws)

    def test_tiny_intensity_returns_empty(self):
        rng = np.random.default_rng(33)
        window = BoxRegion((0.0,), (1.0,))
        draws = [sample_poisson_config(1e-9, window, rng) for _ in range(500)]
        assert all(cfg == EMPTY for cfg in draws)

    def test_intensity_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_poisson_config(0.0, BoxRegion((0.0,), (1.0,)), 1)

    def test_seed_reproducibility(self):
        window = BoxRegion((0.0,), (3.0,))
        a = sample_poisson_config(1.0, window, np.random.default_rng(77))
        b = sample_poisson_config(1.0, window, np.random.default_rng(77))
        assert a == b
