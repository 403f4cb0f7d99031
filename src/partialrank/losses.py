"""Total variation losses, classification error, and lambda cross-validation."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .em import FitConfig, FitResult, _fit_batch, fit
from .errors import DimensionError, DomainError
from .mallows import MixtureParams, mixture_pmf
from .missing import Dataset, MissingTable, empirical_partial_counts, partial_prob_vector
from .perms import DEFAULT_CAP
from .util import is_number


@dataclass(frozen=True)
class LossReport:
    """One scored fit: losses plus enough context to aggregate boxplots."""

    method: str
    replicate: int
    param: str
    l_par: float
    l_comp: float | None  # absent when the truth is an empirical test set
    classification_error: float | None
    runtime_ms: float

    def __post_init__(self):
        if not 0 <= self.l_par <= 2 + 1e-9:
            raise DomainError("total variation losses must lie in [0, 2]")
        if self.l_comp is not None and not 0 <= self.l_comp <= 2 + 1e-9:
            raise DomainError("total variation losses must lie in [0, 2]")
        if self.classification_error is not None and not 0 <= self.classification_error <= 1:
            raise DomainError("classification error must lie in [0, 1]")


def l_par(
    theta: MixtureParams,
    phi: MissingTable,
    theta_hat: MixtureParams,
    phi_hat: MissingTable,
    cap: int = DEFAULT_CAP,
) -> float:
    """Absolute-difference sum over every top-t ranking, enumerated exactly."""
    if theta.r != theta_hat.r:
        raise DimensionError("models disagree on item count")
    truth = partial_prob_vector(theta, phi, cap)
    estimate = partial_prob_vector(theta_hat, phi_hat, cap)
    return float(np.abs(truth - estimate).sum())


def l_par_empirical(test: Dataset, theta_hat: MixtureParams, phi_hat: MissingTable, cap: int = DEFAULT_CAP) -> float:
    """Same loss with the held-out empirical distribution as the truth."""
    if len(test) == 0:
        raise DomainError("need a non-empty test set")
    empirical = empirical_partial_counts(test, cap) / len(test)
    estimate = partial_prob_vector(theta_hat, phi_hat, cap)
    return float(np.abs(empirical - estimate).sum())


def l_comp(theta: MixtureParams, theta_hat: MixtureParams, cap: int = DEFAULT_CAP) -> float:
    """Absolute-difference sum over every complete ranking."""
    if theta.r != theta_hat.r:
        raise DimensionError("models disagree on item count")
    return float(np.abs(mixture_pmf(theta, cap) - mixture_pmf(theta_hat, cap)).sum())


def classification_error(truth, posteriors: np.ndarray) -> float:
    """Mismatch rate of argmax assignments under the best label matching.

    Labels carry no meaning across runs, so the error is minimized over all
    permutations of the predicted labels.
    """
    truth = np.asarray(truth)
    posteriors = np.asarray(posteriors, dtype=float)
    if truth.shape[0] != posteriors.shape[0]:
        raise DimensionError("truth and posteriors disagree on the number of observations")
    k = posteriors.shape[1]
    labels, truth_idx = np.unique(truth, return_inverse=True)
    if labels.shape[0] > k:
        raise DimensionError(f"{labels.shape[0]} true labels but only {k} components")
    predicted = posteriors.argmax(axis=1)
    best = 1.0
    for perm in itertools.permutations(range(k)):
        relabeled = np.asarray(perm)[predicted]
        best = min(best, float(np.mean(relabeled != truth_idx)))
    return best


# ---------------------------------------------------------------------------
# Two-fold cross-validation over the regularization strength.
# ---------------------------------------------------------------------------


@dataclass
class CvResult:
    best_lam: float
    scores: dict[float, float]
    refit: FitResult


def _cv_fold_score(fitted: FitResult, heldout: Dataset, cap: int) -> float:
    """Score one fitted fold on its held-out half (hook for tests)."""
    return l_par_empirical(heldout, fitted.theta, fitted.phi, cap)


def cross_validate(dataset: Dataset, lam_grid, config: FitConfig, cap: int = DEFAULT_CAP) -> CvResult:
    """Two-fold CV on the held-out partial-ranking loss; ties pick the smaller lam.

    The split is a seeded half/half shuffle; the winner is refit on the full
    dataset.
    """
    if len(dataset) < 2:
        raise DomainError("need at least two observations to form folds")
    lam_grid = list(lam_grid)
    if not all(map(is_number, lam_grid)):
        raise DomainError(f"grid entries must be real numbers, got {lam_grid!r}")
    grid = sorted({float(lam) for lam in lam_grid})
    if not grid:
        raise DomainError("empty candidate grid")
    rng = np.random.default_rng([config.seed, 0xCF])
    order = rng.permutation(len(dataset))
    half = len(dataset) // 2
    folds = (dataset.subset(order[:half]), dataset.subset(order[half:]))
    # every (lam, fold) fit in one lockstep batch: per lam, train on each half
    fitted = _fit_batch([(train, lam) for lam in grid for train in folds], config, cap)
    scores: dict[float, float] = {}
    for i, lam in enumerate(grid):
        total = 0.0
        for fitted_fold, test in zip(fitted[2 * i : 2 * i + 2], (folds[1], folds[0])):
            total += _cv_fold_score(fitted_fold, test, cap)
        scores[lam] = total / 2.0
    best_lam = grid[int(np.argmin([scores[lam] for lam in grid]))]
    refit = fit(dataset, replace(config, lam=best_lam), cap)
    return CvResult(best_lam, scores, refit)
