"""Total variation losses, classification error, and lambda cross-validation."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .em import FitConfig, FitResult, fit
from .errors import DimensionError, DomainError
from .mallows import MixtureParams, mixture_pmf
from .missing import Dataset, MissingTable, empirical_partial_counts, partial_prob_vector
from .util import check_real


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


def l_par(theta: MixtureParams, phi: MissingTable, theta_hat: MixtureParams, phi_hat: MissingTable) -> float:
    """Absolute-difference sum over every top-t ranking, enumerated exactly."""
    if theta.r != theta_hat.r:
        raise DimensionError("models disagree on item count")
    truth = partial_prob_vector(theta, phi)
    estimate = partial_prob_vector(theta_hat, phi_hat)
    return float(np.abs(truth - estimate).sum())


def l_par_empirical(test: Dataset, theta_hat: MixtureParams, phi_hat: MissingTable) -> float:
    """Same loss with the held-out empirical distribution as the truth."""
    if len(test) == 0:
        raise DomainError("need a non-empty test set")
    empirical = empirical_partial_counts(test) / len(test)
    estimate = partial_prob_vector(theta_hat, phi_hat)
    return float(np.abs(empirical - estimate).sum())


def l_comp(theta: MixtureParams, theta_hat: MixtureParams) -> float:
    """Absolute-difference sum over every complete ranking."""
    if theta.r != theta_hat.r:
        raise DimensionError("models disagree on item count")
    return float(np.abs(mixture_pmf(theta) - mixture_pmf(theta_hat)).sum())


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


def _cv_fold_score(fitted: FitResult, heldout: Dataset) -> float:
    """Score one fitted fold on its held-out half (hook for tests)."""
    return l_par_empirical(heldout, fitted.theta, fitted.phi)


def cross_validate(dataset: Dataset, lam_grid, config: FitConfig) -> CvResult:
    """Two-fold CV on the held-out partial-ranking loss; ties pick the smaller lam.

    The split is a seeded half/half shuffle. Each (lam, fold) is one
    :func:`fit` under ``config`` at that lam; the winner is refit on the full
    dataset.
    """
    if len(dataset) < 2:
        raise DomainError("need at least two observations to form folds")
    lam_grid = list(lam_grid)
    for lam in lam_grid:
        check_real(lam, "grid entries")
    grid = sorted({float(lam) for lam in lam_grid})
    if not grid:
        raise DomainError("empty candidate grid")
    rng = np.random.default_rng([config.seed, 0xCF])
    order = rng.permutation(len(dataset))
    half = len(dataset) // 2
    folds = (dataset.subset(order[:half]), dataset.subset(order[half:]))
    scores: dict[float, float] = {}
    for lam in grid:
        # train on each half, score on the other
        total = 0.0
        for train, test in zip(folds, (folds[1], folds[0])):
            total += _cv_fold_score(fit(train, replace(config, lam=lam)), test)
        scores[lam] = total / 2.0
    best_lam = grid[int(np.argmin([scores[lam] for lam in grid]))]
    refit = fit(dataset, replace(config, lam=best_lam))
    return CvResult(best_lam, scores, refit)
