"""Quantitative model of majority-vote reasoning: how accuracy responds to
path count, within-context correlation, and iterative refinement.

Paths are binary (correct/incorrect plane). A context draws one plane with
probability ``p_correct``; each path in that context copies the context draw
with probability ``rho`` and draws independently otherwise, so ``rho=1``
collapses a context to a single effective path and ``rho=0`` is iid
sampling. Even-split votes break to the first path's side, mirroring the
first-occurrence rule the real vote aggregator uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, sqrt
from typing import List, Optional, Sequence


@dataclass(frozen=True)
class PlaneModel:
    """Parameters of the reasoning-plane vote model.

    ``q_advance`` is the per-iteration chance an incorrect path refines onto
    the correct plane; ``q_regress`` the chance a correct one drifts off.
    """

    p_correct: float
    rho: float = 0.0
    n_contexts: int = 1
    m_per_context: int = 1
    q_advance: float = 0.0
    q_regress: float = 0.0

    def __post_init__(self):
        for name in ("p_correct", "rho", "q_advance", "q_regress"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.n_contexts < 1 or self.m_per_context < 1:
            raise ValueError("n_contexts and m_per_context must be >= 1")


def analytic_majority(p: float, k: int) -> float:
    """Exact probability a k-path iid majority vote is correct.

    Sums the binomial tail; for even k, an exact split adds half its
    probability because the tied vote goes to the first path's side and,
    by exchangeability, that path is correct in half the tied outcomes.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    acc = sum(comb(k, j) * p ** j * (1 - p) ** (k - j) for j in range(k // 2 + 1, k + 1))
    if k % 2 == 0:
        acc += comb(k, k // 2) * p ** (k // 2) * (1 - p) ** (k // 2) * 0.5
    return acc


@dataclass(frozen=True)
class CurvePoint:
    k: int
    accuracy: float
    std_err: float


@dataclass(frozen=True)
class PlaneSimResult:
    """Monte-Carlo estimate of breadth vote accuracy with a per-k curve."""

    model: PlaneModel
    trials: int
    breadth_acc: float
    breadth_se: float
    per_k_curve: tuple  # CurvePoint per k = 1..n_contexts * m_per_context


def _check_run(trials: int, seed: int) -> None:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def simulate_plane(model: PlaneModel, trials: int, seed: int) -> PlaneSimResult:
    """Seeded Monte-Carlo estimate of vote accuracy for every prefix budget
    k = 1..n*m (paths ordered context-major).

    Trials are counted in groups by their state after each path: whether
    the first path was correct, how many paths were correct, and whether
    the context drew the correct plane. Each path splits every group
    binomially, so the cost is O((n*m)^2) draws whatever ``trials`` is,
    and the counts have the same joint law as drawing each trial alone.
    A k-path vote is correct when ``2 * correct + first > k``: a majority,
    or an even split with the first path correct.
    """
    _check_run(trials, seed)
    import numpy as np  # here, not at the top: only the simulators use numpy

    n, m = model.n_contexts, model.m_per_context
    total = n * m
    p, rho = model.p_correct, model.rho
    rng = np.random.default_rng(seed)
    # P(path correct) given the context drew the wrong or the right plane
    right = np.array([(1 - rho) * p, rho + (1 - rho) * p])
    groups = np.zeros((2, total + 1, 2), dtype=np.int64)  # [first, correct, draw]
    groups[0, 0, 0] = trials
    first, correct = np.indices((2, total + 1))
    score = 2 * correct + first
    correct_counts = np.zeros(total, dtype=np.int64)
    for k in range(1, total + 1):
        if (k - 1) % m == 0:  # a new context draws its plane
            pooled = groups.sum(axis=2)
            groups[..., 1] = rng.binomial(pooled, p)
            groups[..., 0] = pooled - groups[..., 1]
        hits = rng.binomial(groups, right)
        groups -= hits
        if k == 1:  # the first path's hits also set ``first``
            groups[1, 1:] += hits[0, :-1]
        else:
            groups[:, 1:] += hits[:, :-1]
        correct_counts[k - 1] = groups.sum(axis=2)[score > k].sum()
    curve = []
    for k in range(1, total + 1):
        acc = correct_counts[k - 1] / trials
        curve.append(CurvePoint(k=k, accuracy=acc, std_err=sqrt(acc * (1 - acc) / trials)))
    final = curve[-1]
    return PlaneSimResult(
        model=model, trials=trials,
        breadth_acc=final.accuracy, breadth_se=final.std_err,
        per_k_curve=tuple(curve),
    )


@dataclass(frozen=True)
class DepthPoint:
    round: int
    accuracy: float
    std_err: float


def closed_form_depth(p_correct: float, q_advance: float, rounds: int) -> float:
    """Accuracy after the given round when correct paths never regress."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    return 1.0 - (1.0 - p_correct) * (1.0 - q_advance) ** (rounds - 1)


def simulate_depth(model: PlaneModel, t_max: int, trials: int, seed: int) -> List[DepthPoint]:
    """Markov-chain refinement: start correct w.p. ``p_correct``; each later
    round advances incorrect paths w.p. ``q_advance`` and regresses correct
    ones w.p. ``q_regress``. Returns accuracy after rounds 1..t_max.

    Only the count of correct trials is kept: each round draws how many
    correct ones stay and how many incorrect ones advance, so the cost does
    not grow with ``trials``."""
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    _check_run(trials, seed)
    import numpy as np

    rng = np.random.default_rng(seed)
    correct_counts = [int(rng.binomial(trials, model.p_correct))]
    for _ in range(2, t_max + 1):
        stay = rng.binomial(correct_counts[-1], 1 - model.q_regress)
        advance = rng.binomial(trials - correct_counts[-1], model.q_advance)
        correct_counts.append(int(stay + advance))
    points = []
    for t in range(1, t_max + 1):
        acc = correct_counts[t - 1] / trials
        points.append(DepthPoint(round=t, accuracy=acc,
                                 std_err=sqrt(acc * (1 - acc) / trials)))
    return points


def breadth_curve_csv(result: PlaneSimResult) -> str:
    """Per-k CSV with the iid analytic value alongside for comparison."""
    lines = ["k,accuracy,std_err,analytic_iid"]
    for point in result.per_k_curve:
        lines.append(
            f"{point.k},{point.accuracy:.6f},{point.std_err:.6f},"
            f"{analytic_majority(result.model.p_correct, point.k):.6f}"
        )
    return "\n".join(lines) + "\n"


def depth_curve_csv(points: Sequence[DepthPoint], model: PlaneModel) -> str:
    lines = ["round,accuracy,std_err,closed_form"]
    for point in points:
        closed: Optional[float] = None
        if model.q_regress == 0.0:
            closed = closed_form_depth(model.p_correct, model.q_advance, point.round)
        closed_text = f"{closed:.6f}" if closed is not None else ""
        lines.append(f"{point.round},{point.accuracy:.6f},{point.std_err:.6f},{closed_text}")
    return "\n".join(lines) + "\n"
