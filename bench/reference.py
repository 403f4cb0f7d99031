"""Brute-force references for the benchmark's correctness checks.

Nothing here imports ``partialrank``. The one convention shared with it is
the documented vertex index: vertex ``v`` of S_r is the ``v``-th rank
sequence in lexicographic order, which is the order ``itertools.permutations``
yields over ``(1, ..., r)``. Models are passed in as plain data:

* a component is ``(ranks, c, w)``, where ``ranks[i-1]`` is the rank of item i;
* a missing table is a ``(r!, r-1)`` array, row ``v``, column ``t-1``;
* an observation is ``(t, items)``, the top-t items in preference order.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np


def kendall(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Kendall distance between two rank sequences by counting discordant pairs."""
    n = len(a)
    return sum(1 for i in range(n) for j in range(i + 1, n) if (a[i] < a[j]) != (b[i] < b[j]))


class Space:
    """S_r enumerated with itertools, with the lookups the references need."""

    def __init__(self, r: int):
        self.r = r
        self.ranks = list(itertools.permutations(range(1, r + 1)))
        self.index = {p: v for v, p in enumerate(self.ranks)}
        # items listed by rank: position j holds the item ranked j+1
        self.orderings = [tuple(sorted(range(1, r + 1), key=lambda item: p[item - 1])) for p in self.ranks]
        self.compatible: dict[tuple[int, ...], list[int]] = {}
        for v, order in enumerate(self.orderings):
            for t in range(1, r):
                self.compatible.setdefault(order[:t], []).append(v)
        by_order = {order: v for v, order in enumerate(self.orderings)}
        edges = set()
        for v, order in enumerate(self.orderings):
            for j in range(r - 1):
                swapped = list(order)
                swapped[j], swapped[j + 1] = swapped[j + 1], swapped[j]
                u = by_order[tuple(swapped)]
                edges.add((min(u, v), max(u, v)))
        self.edges = np.array(sorted(edges), dtype=np.int64)
        self._distances: dict[tuple[int, ...], list[int]] = {}

    def distances(self, sigma: tuple[int, ...]) -> list[int]:
        if sigma not in self._distances:
            self._distances[sigma] = [kendall(p, sigma) for p in self.ranks]
        return self._distances[sigma]

    def log_normalizer(self, c: float) -> float:
        """log of sum over S_r of exp(-c d(pi, identity))."""
        identity = tuple(range(1, self.r + 1))
        return math.log(math.fsum(math.exp(-c * d) for d in self.distances(identity)))

    def pmf(self, components) -> np.ndarray:
        """Mixture probability of every complete ranking, by direct summation."""
        out = np.zeros(len(self.ranks))
        for sigma, c, w in components:
            log_z = self.log_normalizer(c)
            out += w * np.exp(-c * np.asarray(self.distances(tuple(sigma)), dtype=float) - log_z)
        return out

    def partial_probs(self, components, phi: np.ndarray) -> dict[tuple[int, ...], float]:
        """Probability of every top-t ranking, enumerated prefix by prefix."""
        pmf = self.pmf(components)
        return {
            prefix: math.fsum(phi[v, len(prefix) - 1] * pmf[v] for v in members)
            for prefix, members in self.compatible.items()
        }

    def penalized_nll(self, components, phi: np.ndarray, observations, lam: float) -> float:
        """Observed-data NLL summed per observation over its compatible set,
        plus lam times the squared row differences over the adjacent-swap graph."""
        pmf = self.pmf(components)
        terms = []
        for (t, items), count in Counter(observations).items():
            p = math.fsum(phi[v, t - 1] * pmf[v] for v in self.compatible[tuple(items)])
            if p <= 0:
                return math.inf
            terms.append(-count * math.log(p))
        nll = math.fsum(terms)
        if lam > 0:
            diff = phi[self.edges[:, 0]] - phi[self.edges[:, 1]]
            nll += lam * math.fsum((diff * diff).ravel())
        return nll

    def l_par(self, truth, phi_truth, estimate, phi_estimate) -> float:
        """Total variation (unhalved) over every top-t ranking."""
        a = self.partial_probs(truth, phi_truth)
        b = self.partial_probs(estimate, phi_estimate)
        return math.fsum(abs(a[key] - b[key]) for key in a)

    def l_comp(self, truth, estimate) -> float:
        """Total variation (unhalved) over every complete ranking."""
        return math.fsum(np.abs(self.pmf(truth) - self.pmf(estimate)))


def length_histogram(observations, r: int) -> np.ndarray:
    """Share of observations of each length t = 1..r-1."""
    counts = Counter(t for t, _ in observations)
    return np.array([counts[t] for t in range(1, r)], dtype=float) / len(observations)


def classification_error(truth, posteriors: np.ndarray) -> float:
    """Mismatch rate of argmax labels, minimized by trying every relabelling."""
    labels = sorted(set(int(x) for x in truth))
    truth_idx = np.array([labels.index(int(x)) for x in truth])
    predicted = np.argmax(posteriors, axis=1)
    k = posteriors.shape[1]
    return min(
        float(np.mean(np.array(perm)[predicted] != truth_idx)) for perm in itertools.permutations(range(k))
    )
