"""Acceptance suite: eleven criteria, one verdict line each.

Each test prints (and registers for the terminal summary) a single
"ACCEPTANCE n: PASS/FAIL - ..." line.  Oracles are computed inside
this file from first principles: brute-force minimax matching for the
metric, closed-form layer measures, binomial/chi-square statistics for
the samplers, and Wilson intervals for hitting counts.
"""

import itertools
import math
import time

import numpy as np
from scipy import stats

from conftest import record_acceptance

from birthdeath import (
    EMPTY,
    AllInRegion,
    BallSet,
    BoxRegion,
    Configuration,
    ContactModel,
    EmptySingleton,
    ExactPointTarget,
    HyperplaneTarget,
    LayerSet,
    PairDistanceTarget,
    Path,
    ProductOfDisjointBoxes,
    RhoBall,
    SuiteSizes,
    birth_probability_region,
    build_path,
    check_path,
    corridor_event_frequency,
    corridor_prob_lower_bound,
    death_probability,
    distance_rho,
    in_ball,
    lp_measure_estimate,
    lp_measure_exact,
    null_set_experiment,
    one_step_null_preservation,
    path_length_cap,
    positive_measure_experiment,
    run_default_suite,
    sample_in_ball,
    sample_poisson_config,
    step,
)


def brute_force_rho(first, second):
    if len(first) != len(second):
        return math.inf
    if len(first) == 0:
        return 0.0
    a, b = first.points, second.points
    best = math.inf
    for perm in itertools.permutations(range(len(b))):
        worst = max(math.dist(a[i], b[j]) for i, j in enumerate(perm))
        if worst < best:
            best = worst
    return best


def random_config(rng, n, d, spread=2.0):
    while True:
        pts = [tuple(float(c) for c in rng.uniform(-spread, spread, size=d)) for _ in range(n)]
        if len(set(pts)) == n:
            return Configuration(pts)


def test_acceptance_01_metric_matches_brute_force():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    pairs = 500
    mismatches = 0
    for k in range(pairs):
        d = (k % 3) + 1
        n = int(rng.integers(1, 8))
        a = random_config(rng, n, d)
        b = random_config(rng, n, d)
        if distance_rho(a, b) != brute_force_rho(a, b):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 10.0
    line = record_acceptance(
        1,
        ok,
        f"exact equality with brute-force minimax on {pairs} pairs "
        f"(d in 1..3, n<=7), {mismatches} mismatches, {elapsed:.2f}s",
    )
    assert ok, line


def test_acceptance_02_metric_axioms():
    rng = np.random.default_rng(1002)
    triples = 1000
    tol = 1e-12
    violations = 0
    for k in range(triples):
        d = (k % 3) + 1
        n = int(rng.integers(1, 6))
        a, b, c = (random_config(rng, n, d) for _ in range(3))
        ab, ba = distance_rho(a, b), distance_rho(b, a)
        if abs(ab - ba) > tol:
            violations += 1
            continue
        if distance_rho(a, c) > ab + distance_rho(b, c) + tol:
            violations += 1
    ok = violations == 0
    line = record_acceptance(
        2,
        ok,
        f"symmetry and triangle inequality within {tol:g} on {triples} "
        f"same-layer triples, {violations} violations",
    )
    assert ok, line


def _exact_sets():
    u1 = BoxRegion((0.0,), (1.0,))
    inner1 = BoxRegion((0.2,), (0.8,))
    wide1 = BoxRegion((-1.0,), (1.0,))
    u2 = BoxRegion((0.0, 0.0), (1.0, 1.0))
    inner2 = BoxRegion((0.25, 0.25), (0.75, 0.75))
    sets = [
        # (layer set, sampling window)
        (LayerSet(0, EmptySingleton()), u1),
        (LayerSet(1, AllInRegion(u1)), u1),
        (LayerSet(1, AllInRegion(inner1)), u1),
        (LayerSet(1, AllInRegion(inner1)), wide1),
        (LayerSet(2, AllInRegion(u1)), u1),
        (LayerSet(2, AllInRegion(inner1)), u1),
        (LayerSet(2, AllInRegion(wide1)), wide1),
        (LayerSet(3, AllInRegion(u1)), u1),
        (LayerSet(3, AllInRegion(inner1)), wide1),
        (LayerSet(1, AllInRegion(u2)), u2),
        (LayerSet(1, AllInRegion(inner2)), u2),
        (LayerSet(2, AllInRegion(u2)), u2),
        (LayerSet(2, AllInRegion(inner2)), u2),
        (LayerSet(3, AllInRegion(inner2)), u2),
        (LayerSet(1, ProductOfDisjointBoxes((inner1,))), wide1),
        (
            LayerSet(
                2,
                ProductOfDisjointBoxes(
                    (BoxRegion((0.0,), (0.4,)), BoxRegion((0.6,), (1.0,)))
                ),
            ),
            u1,
        ),
        (
            LayerSet(
                2,
                ProductOfDisjointBoxes(
                    (BoxRegion((-1.0,), (-0.2,)), BoxRegion((0.2,), (1.0,)))
                ),
            ),
            wide1,
        ),
        (
            LayerSet(
                3,
                ProductOfDisjointBoxes(
                    (
                        BoxRegion((0.0,), (0.25,)),
                        BoxRegion((0.35,), (0.6,)),
                        BoxRegion((0.7,), (1.0,)),
                    )
                ),
            ),
            u1,
        ),
        (
            LayerSet(
                2,
                ProductOfDisjointBoxes(
                    (
                        BoxRegion((0.0, 0.0), (0.5, 1.0)),
                        BoxRegion((0.5, 0.0), (1.0, 1.0)),
                    )
                ),
            ),
            u2,
        ),
        (
            LayerSet(
                3,
                ProductOfDisjointBoxes(
                    (
                        BoxRegion((0.0,), (0.3,)),
                        BoxRegion((0.4,), (0.5,)),
                        BoxRegion((0.8,), (1.0,)),
                    )
                ),
            ),
            wide1,
        ),
    ]
    assert len(sets) == 20
    return sets


def test_acceptance_03_measure_estimate_matches_exact():
    start = time.perf_counter()
    samples = 100_000
    failures = []
    for index, (layer_set, window) in enumerate(_exact_sets()):
        exact = lp_measure_exact(layer_set)
        est = lp_measure_estimate(
            layer_set.layer, window, layer_set.contains, samples, seed=2000 + index
        )
        if abs(est.value - exact) > 4 * est.std_error:
            failures.append(f"set {index}: |{est.value:.5g} - {exact:.5g}| > 4se")
    ball = RhoBall(Configuration([[0.25], [0.75]]), 0.1)
    ball_est = lp_measure_estimate(
        2, BoxRegion((0.0,), (1.0,)), lambda c: in_ball(c, ball), samples, seed=2999
    )
    ball_ok = abs(ball_est.value - 0.04) <= 3 * ball_est.std_error
    if not ball_ok:
        failures.append(f"ball example {ball_est.value:.5g} vs 0.04")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    line = record_acceptance(
        3,
        ok,
        f"estimate vs exact within 4se on 20 sets (layers 0-3, M=1e5), "
        f"ball example {ball_est.value:.4f} vs 0.04 within 3se, {elapsed:.1f}s"
        + (f"; failures: {failures}" if failures else ""),
    )
    assert ok, line


def test_acceptance_04_kernel_normalization():
    rng = np.random.default_rng(1004)
    models = [ContactModel(), ContactModel(crowding_death=0.4)]
    worst = 0.0
    checked = 0
    while checked < 100:
        model = models[checked % 2]
        n = int(rng.integers(0, 21))
        if n == 0:
            state = EMPTY
        else:
            pts = [tuple(float(x) for x in rng.uniform(-2.0, 2.0, size=1)) for _ in range(n)]
            if len(set(pts)) < n:
                continue
            state = Configuration(pts)
        death_sum = sum(death_probability(state, p, model) for p in state)
        birth = birth_probability_region(state, None, model)
        worst = max(worst, abs(death_sum + birth - 1.0))
        checked += 1
    ok = worst <= 1e-9
    line = record_acceptance(
        4,
        ok,
        f"death+birth probabilities sum to 1 within 1e-9 on {checked} states "
        f"(|state|<=20, with and without crowding), worst residual {worst:.3g}",
    )
    assert ok, line


def test_acceptance_05_sampler_fidelity():
    model = ContactModel()
    state = Configuration([[0.0]])
    expected = model.total_death_mass(state) / model.jump_rate(state)
    rng = np.random.default_rng(1005)
    draws = 100_000
    deaths = sum(1 for _ in range(draws) if step(state, model, rng)[1].kind == "death")
    freq = deaths / draws
    sigma = math.sqrt(expected * (1.0 - expected) / draws)
    death_ok = abs(freq - expected) <= 4 * sigma

    window = BoxRegion((0.0,), (1.0,))
    z = 2.0
    count_rng = np.random.default_rng(1505)
    tail = 7  # expected count in the merged tail bin stays above 40
    counts = np.zeros(tail + 1, dtype=int)
    n_draws = 10_000
    for _ in range(n_draws):
        k = len(sample_poisson_config(z, window, count_rng))
        counts[min(k, tail)] += 1
    probs = [stats.poisson.pmf(k, z) for k in range(tail)]
    probs.append(1.0 - sum(probs))
    chi = stats.chisquare(counts, np.array(probs) * n_draws)
    poisson_ok = chi.pvalue >= 0.01
    ok = death_ok and poisson_ok
    line = record_acceptance(
        5,
        ok,
        f"singleton death frequency {freq:.4f} vs {expected:.4f} within 4 sigma "
        f"over 1e5 steps; Poisson(2) count chi-square p={chi.pvalue:.3f} >= 0.01",
    )
    assert ok, line


def test_acceptance_06_path_construction():
    rng = np.random.default_rng(1006)
    goals = 200
    radius = 1.0
    bad = 0
    for k in range(goals):
        d = (k % 3) + 1
        n = int(rng.integers(1, 9))
        goal = random_config(rng, n, d)
        anchor = (0.0,) * d
        path = build_path(goal, radius, anchor)
        try:
            check_path(path, ContactModel(dimension=d))
            valid = True
        except ValueError:
            valid = False
        # the advertised cap, written out: twice (waypoint ceilings + goal size)
        formula = 2 * (
            sum(math.ceil(4.0 * math.dist(p, anchor) / radius) for p in goal)
            + len(goal)
        )
        capped = path.length <= min(formula, path_length_cap(goal, radius, anchor))
        reaches = path.final == goal and path.start == EMPTY
        if not (valid and capped and reaches):
            bad += 1
    ok = bad == 0
    line = record_acceptance(
        6,
        ok,
        f"built paths valid, goal-reaching, and within the length cap on "
        f"{goals} random goals (|goal|<=8, d in 1..3): {goals - bad}/{goals}",
    )
    assert ok, line


def _random_valid_path(rng, model, max_len=6):
    r = model.interaction_radius
    anchor = model.immigration_region.center
    if rng.random() < 0.3:
        vertices = [EMPTY, Configuration([anchor])]
    else:
        n0 = int(rng.integers(1, 4))
        vertices = [random_config(rng, n0, model.dimension, spread=1.0)]
    target_len = int(rng.integers(1, max_len + 1))
    while len(vertices) - 1 < target_len:
        current = vertices[-1]
        if len(current) > 1 and rng.random() < 0.4:
            vertices.append(current.without_index(int(rng.integers(len(current)))))
            continue
        base = current.points[int(rng.integers(len(current)))]
        while True:
            candidate = sample_in_ball(base, r / 2.0, rng)
            if candidate not in current:
                break
        vertices.append(current.with_point(candidate))
    return Path(tuple(vertices))


def test_acceptance_07_corridor_bound_vs_empirical():
    start = time.perf_counter()
    model = ContactModel()
    rng = np.random.default_rng(1007)
    a = model.interaction_radius / 8.0
    replicas = 100_000
    failures = []
    for k in range(20):
        path = _random_valid_path(rng, model)
        check_path(path, model)
        bound = corridor_prob_lower_bound(path, a, model)
        freq = corridor_event_frequency(path, a, model, replicas, seed=3000 + k)
        if not (bound > 0.0 and bound <= freq.ci_high):
            failures.append(
                f"path {k} (len {path.length}): bound {bound:.3g} vs upper {freq.ci_high:.3g}"
            )
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 300.0
    line = record_acceptance(
        7,
        ok,
        f"certified corridor bound positive and <= empirical 95% upper bound on "
        f"20 random paths (len<=6, a=r/8, 1e5 replicas each), {elapsed:.0f}s"
        + (f"; failures: {failures}" if failures else ""),
    )
    assert ok, line


def test_acceptance_08_positive_measure_direction():
    model = ContactModel()
    center = model.immigration_region.center
    window = BoxRegion(
        tuple(c - 1.5 for c in center), tuple(c + 1.5 for c in center)
    )
    rng = np.random.default_rng(1008)
    starts = [EMPTY, Configuration([center])] + [
        sample_poisson_config(1.0, window, rng) for _ in range(3)
    ]
    quarter = model.interaction_radius / 4.0
    targets = [
        LayerSet(0, EmptySingleton()),
        # singleton ball at the immigration center
        _ball_target(Configuration([center]), quarter),
        # singleton ball shifted along the first axis
        _ball_target(Configuration([tuple(c + 1.0 / 3.0 for c in center)]), quarter),
        # two-point ball straddling the center
        _ball_target(
            Configuration(
                [tuple(c - 1.0 / 6.0 for c in center), tuple(c + 1.0 / 6.0 for c in center)]
            ),
            quarter,
        ),
    ]
    report = positive_measure_experiment(
        model, targets, starts, max_steps=1_000, replicas=10_000, seed=1008
    )
    ok = report.passed and len(report.rows) == 20
    worst = min(row.ci_low for row in report.rows)
    line = record_acceptance(
        8,
        ok,
        f"all 20 (start,target) pairs hit with Wilson lower bound > 0 "
        f"(N=1e3 steps, M=1e4 replicas); smallest lower bound {worst:.4f}",
    )
    assert ok, line


def _ball_target(center_config, radius):
    return LayerSet(len(center_config), BallSet(RhoBall(center_config, radius)))


def test_acceptance_09_null_direction():
    model = ContactModel()
    center = model.immigration_region.center
    predicates = [
        ExactPointTarget(tuple(c + 1.0 for c in center)),
        HyperplaneTarget(0, center[0] + 0.25),
        PairDistanceTarget(1.0),
    ]
    window = BoxRegion(tuple(c - 1.5 for c in center), tuple(c + 1.5 for c in center))
    seed_rng = np.random.default_rng(1009)
    starts = [EMPTY, sample_poisson_config(1.0, window, seed_rng)]
    report = null_set_experiment(
        model, predicates, starts, max_steps=50, replicas=50_000, seed=1009
    )
    trajectories = 2 * 50_000
    null_ok = report.passed and all(row.hits == 0 for row in report.rows)

    draw_rng = np.random.default_rng(2009)
    states = [sample_poisson_config(1.0, window, draw_rng) for _ in range(10_000)]
    preservation = one_step_null_preservation(model, predicates[0], states, seed=2009)
    preservation_ok = preservation.passed and preservation.rows[0].hits == 0

    witness = Configuration([tuple(c + 1.0 for c in center), tuple(c - 0.3 for c in center)])
    detector = one_step_null_preservation(model, predicates[0], [witness], seed=0)
    witness_ok = (not detector.passed) and detector.rows[0].hits == 1

    ok = null_ok and preservation_ok and witness_ok
    line = record_acceptance(
        9,
        ok,
        f"0 hits across {trajectories} trajectories x 3 null predicates; "
        f"one-step detector flags 0/10000 Poisson draws and does flag the "
        f"constructed witness",
    )
    assert ok, line


def test_acceptance_10_extinction():
    model = ContactModel()
    gap = model.interaction_radius / 3.0
    center = model.immigration_region.center
    start = Configuration(
        [tuple(c + k * gap for c in center) for k in range(-2, 3)]
    )
    report = positive_measure_experiment(
        model, [LayerSet(0, EmptySingleton())], [start], max_steps=10_000, replicas=1_000, seed=1010
    )
    hits = report.rows[0].hits
    ok = report.passed and hits >= 1
    line = record_acceptance(
        10,
        ok,
        f"{hits}/1000 replicas from the 5-point start reached the empty state "
        f"within 1e4 steps (need >= 1)",
    )
    assert ok, line


def test_acceptance_11_lab_determinism(tmp_path):
    model = ContactModel()
    sizes = SuiteSizes(
        max_steps=200,
        replicas=300,
        null_max_steps=40,
        null_replicas=400,
        preservation_draws=300,
        pipeline_replicas=600,
        extinction_replicas=150,
        extinction_max_steps=1_000,
        measure_samples=4_000,
    )
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_a.mkdir()
    out_b.mkdir()
    mismatched = []
    for out in (out_a, out_b):
        for report in run_default_suite(model, seed=1011, sizes=sizes):
            report.write_csv(out / f"lab_{report.experiment}.csv")
    names = sorted(p.name for p in out_a.iterdir())
    for name in names:
        if (out_a / name).read_bytes() != (out_b / name).read_bytes():
            mismatched.append(name)
    ok = not mismatched and len(names) == 5
    line = record_acceptance(
        11,
        ok,
        f"two identical-seed suite runs produced byte-identical CSVs for all "
        f"{len(names)} experiments" + (f"; mismatched: {mismatched}" if mismatched else ""),
    )
    assert ok, line
