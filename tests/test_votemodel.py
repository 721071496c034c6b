import itertools
import math
import time

import numpy as np
import pytest

from breadth.votemodel import (
    CurvePoint,
    PlaneModel,
    PlaneSimResult,
    analytic_majority,
    breadth_curve_csv,
    closed_form_depth,
    depth_curve_csv,
    simulate_depth,
    simulate_plane,
)

SIM_TRIALS = 1_000_000
GRID_TRIALS = 300_000


def _reference_simulate_plane(model, trials, seed):
    """The straightforward kernel: every trial's context draws, copy masks
    and independent draws, and a separate prefix sum for every budget k."""
    n, m = model.n_contexts, model.m_per_context
    total = n * m
    rng = np.random.default_rng(seed)
    context = rng.random((trials, n)) < model.p_correct
    copy_mask = rng.random((trials, n, m)) < model.rho
    independent = rng.random((trials, n, m)) < model.p_correct
    paths = np.where(copy_mask, context[:, :, None], independent)
    paths = paths.reshape(trials, total).astype(np.int8)
    curve = []
    for k in range(1, total + 1):
        counts = paths[:, :k].sum(axis=1)
        wins = counts * 2 > k
        ties = counts * 2 == k
        acc = int((wins | (ties & paths[:, 0].astype(bool))).sum()) / trials
        curve.append(CurvePoint(k=k, accuracy=acc, std_err=math.sqrt(acc * (1 - acc) / trials)))
    return PlaneSimResult(model=model, trials=trials, breadth_acc=curve[-1].accuracy,
                          breadth_se=curve[-1].std_err, per_k_curve=tuple(curve))


def _enumerate_plane(p, rho, n, m):
    """Exact joint vote accuracy by enumerating every context draw and every
    path bit: ``both[i][j]`` is the probability that the (i+1)-path and the
    (j+1)-path votes are both correct, so ``both[k-1][k-1]`` is the k-path
    vote's accuracy. Even splits go to the first path's side."""
    total = n * m
    right = ((1 - rho) * p, rho + (1 - rho) * p)  # given a wrong or right draw
    both = [[0.0] * total for _ in range(total)]
    for draws in itertools.product((0, 1), repeat=n):
        draw_prob = math.prod(p if d else 1 - p for d in draws)
        for bits in itertools.product((0, 1), repeat=total):
            prob = draw_prob
            for i, bit in enumerate(bits):
                chance = right[draws[i // m]]
                prob *= chance if bit else 1 - chance
            won = []
            for k in range(1, total + 1):
                correct = sum(bits[:k])
                if 2 * correct > k or (2 * correct == k and bits[0]):
                    won.append(k - 1)
            for i in won:
                for j in won:
                    both[i][j] += prob
    return both


def _enumerate_vote_accuracy(p, k):
    """Independent oracle: enumerate all 2^k path outcomes with the
    first-path tie rule."""
    total = 0.0
    for outcome in itertools.product([1, 0], repeat=k):
        prob = 1.0
        for bit in outcome:
            prob *= p if bit else (1 - p)
        correct_count = sum(outcome)
        if 2 * correct_count > k:
            correct = 1
        elif 2 * correct_count == k:
            correct = outcome[0]
        else:
            correct = 0
        total += prob * correct
    return total


# ---------------------------------------------------------------- analytic


def test_analytic_certainty_and_hand_values():
    for k in (1, 2, 3, 7, 10):
        assert analytic_majority(1.0, k) == pytest.approx(1.0)
        assert analytic_majority(0.0, k) == pytest.approx(0.0)
    assert analytic_majority(0.6, 3) == pytest.approx(0.648, abs=1e-12)
    assert analytic_majority(0.5, 2) == pytest.approx(0.5, abs=1e-12)


def test_analytic_matches_enumeration_oracle_including_even_k():
    for p in (0.3, 0.5, 0.6, 0.85):
        for k in range(1, 9):
            assert analytic_majority(p, k) == pytest.approx(
                _enumerate_vote_accuracy(p, k), abs=1e-12), (p, k)


def test_analytic_rejects_bad_arguments():
    with pytest.raises(ValueError):
        analytic_majority(0.6, 0)
    with pytest.raises(ValueError):
        analytic_majority(1.5, 3)


def test_analytic_nondecreasing_in_p():
    for k in (1, 2, 3, 5, 8):
        values = [analytic_majority(p / 20, k) for p in range(21)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_analytic_nondecreasing_over_odd_k_above_half():
    for p in (0.55, 0.7, 0.9):
        values = [analytic_majority(p, k) for k in (1, 3, 5, 7)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:])), p


# ---------------------------------------------------------------- breadth sim


def test_simulation_agrees_with_analytic_when_iid():
    model = PlaneModel(p_correct=0.6, rho=0.0, n_contexts=3, m_per_context=2)
    result = simulate_plane(model, trials=SIM_TRIALS, seed=7)
    for point in result.per_k_curve:
        expected = analytic_majority(0.6, point.k)
        assert abs(point.accuracy - expected) <= 3 * max(point.std_err, 1e-9), point.k


def test_fully_correlated_context_adds_nothing():
    model = PlaneModel(p_correct=0.6, rho=1.0, n_contexts=1, m_per_context=8)
    result = simulate_plane(model, trials=200_000, seed=3)
    assert abs(result.breadth_acc - 0.6) <= 3 * result.breadth_se
    # every prefix budget gives the same accuracy: same single plane draw
    accuracies = {point.accuracy for point in result.per_k_curve}
    assert len(accuracies) == 1


def test_seed_determinism():
    model = PlaneModel(p_correct=0.7, rho=0.4, n_contexts=2, m_per_context=3)
    first = simulate_plane(model, trials=50_000, seed=11)
    second = simulate_plane(model, trials=50_000, seed=11)
    assert first == second
    third = simulate_plane(model, trials=50_000, seed=12)
    assert third != first


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2),
                                 (2, 3), (3, 2), (3, 3), (1, 8), (4, 2)])
def test_simulation_matches_enumeration(n, m):
    trials = 400_000
    for seed, (p, rho) in enumerate(itertools.product((0.3, 0.6, 0.85), (0.0, 0.4, 0.8, 1.0))):
        both = _enumerate_plane(p, rho, n, m)
        result = simulate_plane(PlaneModel(p_correct=p, rho=rho, n_contexts=n,
                                           m_per_context=m), trials, seed)
        for point in result.per_k_curve:
            exact = both[point.k - 1][point.k - 1]
            se = math.sqrt(exact * (1 - exact) / trials)
            assert abs(point.accuracy - exact) <= 4 * se, (p, rho, point.k)


@pytest.mark.parametrize("rho", [0.0, 0.4, 1.0])
@pytest.mark.parametrize("n,m", [(1, 1), (1, 8), (2, 3), (3, 3), (5, 4)])
def test_simulation_equals_the_reference_kernel(n, m, rho):
    # The kernel draws other numbers than the per-trial reference, so the
    # two agree in distribution: every k within 4 standard errors of the
    # difference. (5, 4) is past what the enumeration oracle can reach.
    model = PlaneModel(p_correct=0.6, rho=rho, n_contexts=n, m_per_context=m)
    result = simulate_plane(model, 1_000_000, seed=19)
    reference = _reference_simulate_plane(model, 50_000, seed=19)
    for point, ref in zip(result.per_k_curve, reference.per_k_curve):
        margin = 4 * max(math.hypot(point.std_err, ref.std_err), 1e-9)
        assert abs(point.accuracy - ref.accuracy) <= margin, point.k


def test_simulation_spread_matches_the_binomial_law():
    # Over many seeds, each k's count spreads as a binomial one, and two
    # budgets' counts correlate as the enumerated joint law says: the
    # kernel keeps the trials' joint distribution, not only the means.
    p, rho, n, m, trials, seeds = 0.6, 0.8, 3, 3, 1_000, 2_000
    both = _enumerate_plane(p, rho, n, m)
    model = PlaneModel(p_correct=p, rho=rho, n_contexts=n, m_per_context=m)
    runs = np.array([[point.accuracy for point in simulate_plane(model, trials, seed).per_k_curve]
                     for seed in range(seeds)])
    exact = np.diag(both)
    sd = np.sqrt(exact * (1 - exact))  # of one trial's vote
    ratio = runs.std(axis=0, ddof=1) / (sd / math.sqrt(trials))
    assert np.all(np.abs(ratio - 1) < 0.1), ratio
    exact_corr = (np.array(both) - np.outer(exact, exact)) / np.outer(sd, sd)
    assert np.abs(np.corrcoef(runs, rowvar=False) - exact_corr).max() < 0.1


def test_simulation_cost_does_not_grow_with_trials():
    model = PlaneModel(p_correct=0.6, rho=0.4, n_contexts=3, m_per_context=3)
    exact = np.diag(_enumerate_plane(0.6, 0.4, 3, 3))
    started = time.monotonic()
    result = simulate_plane(model, trials=10 ** 12, seed=23)
    assert time.monotonic() - started < 2.0
    for point in result.per_k_curve:
        se = math.sqrt(exact[point.k - 1] * (1 - exact[point.k - 1]) / 10 ** 12)
        assert abs(point.accuracy - exact[point.k - 1]) <= 4 * se + 1e-12, point.k


def test_two_by_two_beats_one_by_four_under_correlation():
    for p in (0.6, 0.7, 0.9):
        for rho in (0.5, 0.8):
            spread = simulate_plane(
                PlaneModel(p_correct=p, rho=rho, n_contexts=2, m_per_context=2),
                trials=GRID_TRIALS, seed=101)
            narrow = simulate_plane(
                PlaneModel(p_correct=p, rho=rho, n_contexts=1, m_per_context=4),
                trials=GRID_TRIALS, seed=202)
            margin = 3 * math.hypot(spread.breadth_se, narrow.breadth_se)
            assert spread.breadth_acc > narrow.breadth_acc - margin, (p, rho)


def test_breadth_accuracy_nonincreasing_in_rho():
    for p in (0.55, 0.7, 0.9):
        accuracies = []
        errors = []
        for rho in (0.0, 0.25, 0.5, 0.75, 1.0):
            result = simulate_plane(
                PlaneModel(p_correct=p, rho=rho, n_contexts=3, m_per_context=2),
                trials=GRID_TRIALS, seed=303)
            accuracies.append(result.breadth_acc)
            errors.append(result.breadth_se)
        for i in range(len(accuracies) - 1):
            margin = 3 * math.hypot(errors[i], errors[i + 1])
            assert accuracies[i + 1] <= accuracies[i] + margin, (p, i)


def test_simulation_rejects_bad_arguments():
    model = PlaneModel(p_correct=0.5)
    with pytest.raises(ValueError):
        simulate_plane(model, trials=0, seed=1)
    with pytest.raises(ValueError, match="seed"):
        simulate_plane(model, trials=10, seed=-1)
    with pytest.raises(ValueError):
        PlaneModel(p_correct=1.2)
    with pytest.raises(ValueError):
        PlaneModel(p_correct=0.5, n_contexts=0)


# ---------------------------------------------------------------- depth sim


def test_depth_no_advance_is_flat():
    model = PlaneModel(p_correct=0.4, q_advance=0.0)
    points = simulate_depth(model, t_max=4, trials=100_000, seed=5)
    for point in points:
        assert abs(point.accuracy - 0.4) <= 3 * max(point.std_err, 1e-9)


def test_depth_closed_form_hand_value():
    assert closed_form_depth(0.4, 0.5, 3) == pytest.approx(0.85, abs=1e-12)
    assert closed_form_depth(0.4, 0.5, 1) == pytest.approx(0.4, abs=1e-12)


def test_depth_simulation_matches_closed_form():
    model = PlaneModel(p_correct=0.4, q_advance=0.5)
    points = simulate_depth(model, t_max=3, trials=SIM_TRIALS, seed=13)
    for point in points:
        expected = closed_form_depth(0.4, 0.5, point.round)
        assert abs(point.accuracy - expected) <= 3 * max(point.std_err, 1e-9)
    assert points[-1].accuracy == pytest.approx(0.85, abs=0.002)


def test_depth_with_regression_matches_the_recurrence():
    p, q_advance, q_regress, trials = 0.9, 0.2, 0.3, 1_000_000
    model = PlaneModel(p_correct=p, q_advance=q_advance, q_regress=q_regress)
    points = simulate_depth(model, t_max=6, trials=trials, seed=29)
    exact = p
    for point in points:
        se = math.sqrt(exact * (1 - exact) / trials)
        assert abs(point.accuracy - exact) <= 4 * se, point.round
        exact = exact * (1 - q_regress) + (1 - exact) * q_advance


def test_depth_with_regression_can_fall():
    model = PlaneModel(p_correct=0.9, q_advance=0.0, q_regress=0.5)
    points = simulate_depth(model, t_max=3, trials=100_000, seed=17)
    assert points[1].accuracy < points[0].accuracy


def test_depth_rejects_bad_arguments():
    model = PlaneModel(p_correct=0.5)
    with pytest.raises(ValueError):
        simulate_depth(model, t_max=0, trials=10, seed=1)
    with pytest.raises(ValueError, match="seed"):
        simulate_depth(model, t_max=3, trials=10, seed=-1)
    with pytest.raises(ValueError):
        closed_form_depth(0.5, 0.5, 0)


# ---------------------------------------------------------------- csv


def test_csv_outputs_have_expected_shape():
    model = PlaneModel(p_correct=0.6, rho=0.5, n_contexts=2, m_per_context=2,
                       q_advance=0.5)
    result = simulate_plane(model, trials=10_000, seed=1)
    breadth_csv = breadth_curve_csv(result)
    lines = breadth_csv.strip().splitlines()
    assert lines[0] == "k,accuracy,std_err,analytic_iid"
    assert len(lines) == 1 + 4

    points = simulate_depth(model, t_max=3, trials=10_000, seed=1)
    depth_csv = depth_curve_csv(points, model)
    lines = depth_csv.strip().splitlines()
    assert lines[0] == "round,accuracy,std_err,closed_form"
    assert len(lines) == 1 + 3
    assert lines[1].split(",")[3] != ""  # closed form present when q_regress=0
