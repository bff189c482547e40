"""Proposal strategies for adaptive sweep campaigns.

A strategy turns *results so far* into *what to run next*.  Every strategy
here searches over a finite **candidate pool** -- the expansion of the
campaign's search-space :class:`~repro.api.sweep.SweepSpec` -- and proposes
only unvisited pool points.  Searching a declared pool (rather than a
continuous box) keeps the whole campaign machinery exact: proposed points
are grid points, so cache keys, shard assignment and content hashes match a
plain grid sweep of the same space, and "points saved vs the full grid" is
a well-defined number.

The contract is a single method::

    propose(history: ResultSet, batch_size: int) -> list[dict]

where ``history`` holds every record produced so far (the campaign runner
assembles it) and the return value is a list of at most ``batch_size``
parameter-override dicts drawn from the unvisited pool.  An empty list
means the pool is exhausted.

All strategies are seeded: two strategies constructed with the same
arguments propose identical sequences for identical histories, which is
what makes campaigns resumable and replayable.

Strategies:

``RandomStrategy``
    Uniform random draws from the unvisited pool.  The honest baseline.
``LatinHypercubeStrategy``
    Stratified draws: the unvisited pool (in spec order) is cut into
    ``batch_size`` equal strata and one point is drawn per stratum, so a
    batch spreads over the space instead of clumping.
``RefineStrategy``
    Greedy zoom: proposes the unvisited points closest (in normalised
    feature space) to the best point seen so far -- the programmatic
    version of the coarse-sweep-then-``SweepSpec.refine`` workflow.
``SurrogateStrategy``
    Gaussian-process surrogate (RBF kernel) fit over the visited points,
    expected-improvement acquisition over the unvisited pool, plus an
    exploration jitter that replaces a random fraction of each batch with
    stratified draws so the surrogate cannot tunnel-vision.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.api.results import ResultSet
from repro.api.sweep import SweepSpec
from repro.dist.shards import _record_point_key, point_key

__all__ = [
    "Strategy",
    "RandomStrategy",
    "LatinHypercubeStrategy",
    "RefineStrategy",
    "SurrogateStrategy",
    "STRATEGIES",
    "make_strategy",
    "point_objectives",
]


def _is_bad(value: Any) -> bool:
    return value is None or (isinstance(value, float) and math.isnan(value))


def point_objectives(
    history: ResultSet,
    axis_names: Sequence[str],
    objective: str,
    mode: str = "min",
) -> dict[str, float]:
    """Aggregate a history into one objective value per visited point.

    Keyed by :func:`repro.dist.shards.point_key` identity.  A point whose
    experiment emits several records (``growth_window`` emits one per
    temperature) is scored by its *extremal* record in the campaign's
    direction -- for corner hunting that is exactly "the worst case at this
    point".  Records with a missing/NaN objective are skipped.
    """
    if mode not in ("min", "max"):
        raise ValueError(f"unknown mode {mode!r}; use 'min' or 'max'")
    scores: dict[str, float] = {}
    for record in history.to_records():
        value = record.get(objective)
        if _is_bad(value):
            continue
        value = float(value)
        key = _record_point_key(record, axis_names)
        if key not in scores:
            scores[key] = value
        elif mode == "min":
            scores[key] = min(scores[key], value)
        else:
            scores[key] = max(scores[key], value)
    return scores


def _scalar(value: Any) -> Any:
    """Unwrap singleton lists/tuples (e.g. ``temperatures_c=(t,)`` axes)."""
    if isinstance(value, (list, tuple)) and len(value) == 1:
        return _scalar(value[0])
    return value


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class _AxisTable:
    """How one axis encodes: min-max over a numeric domain, else the
    declaration-order index of the value (``index`` maps its point key)."""

    numeric: bool
    lo: float
    hi: float
    index: dict[str, int]
    span: int

    def encode(self, value: Any) -> float:
        """One axis value as a float in [0, 1]."""
        cell = _scalar(value)
        if self.numeric and _is_number(cell):
            if self.hi == self.lo:
                return 0.0
            return (float(cell) - self.lo) / (self.hi - self.lo)
        return self.index.get(point_key({"v": value}), 0) / self.span


def _axis_tables(space: SweepSpec) -> dict[str, _AxisTable]:
    """One :class:`_AxisTable` per axis, built once per strategy.

    The domain of a grid/zip axis is its declared values; for an explicit
    points spec it is the distinct values of the points, in first-seen
    order.
    """
    if space.mode == "points":
        domains: dict[str, list[Any]] = {name: [] for name in space.axis_names}
        seen: dict[str, set[str]] = {name: set() for name in space.axis_names}
        for point in space.points():
            for name, value in point.items():
                key = point_key({"v": value})
                if key not in seen[name]:
                    seen[name].add(key)
                    domains[name].append(value)
    else:
        domains = {name: list(values) for name, values in space.axes.items()}
    tables = {}
    for name, domain in domains.items():
        scalars = [_scalar(value) for value in domain]
        numeric = all(_is_number(cell) for cell in scalars)
        index: dict[str, int] = {}
        for position, value in enumerate(domain):
            index.setdefault(point_key({"v": value}), position)
        tables[name] = _AxisTable(
            numeric=numeric,
            lo=min(scalars) if numeric and scalars else 0.0,
            hi=max(scalars) if numeric and scalars else 0.0,
            index=index,
            span=max(len(domain) - 1, 1),
        )
    return tables


class Strategy:
    """Base class: candidate-pool bookkeeping shared by every strategy.

    Subclasses implement :meth:`_select` over the *unvisited* pool, given
    as positions into ``pool`` (whose keys and feature vectors are computed
    once, here); the base class handles visited-point identity, batch
    clamping and the seeded rng.  ``rng`` state is what campaign checkpoints capture, so a
    subclass must draw all its randomness from ``self.rng``.
    """

    name = "strategy"

    def __init__(
        self,
        space: SweepSpec,
        objective: str,
        mode: str = "min",
        seed: int = 0,
    ) -> None:
        if mode not in ("min", "max"):
            raise ValueError(f"unknown mode {mode!r}; use 'min' or 'max'")
        self.space = space
        self.objective = objective
        self.mode = mode
        self.seed = seed
        self.rng = random.Random(seed)
        self.pool = space.points()
        self._tables = _axis_tables(space)
        # Each pool point's identity and feature vector, computed once: the
        # rounds only look them up.
        self._keys = [point_key(point) for point in self.pool]
        self._features = [self.encode(point) for point in self.pool]

    # --- pool bookkeeping -------------------------------------------------

    def _unvisited(self, history: ResultSet) -> list[int]:
        """Pool positions of the points not yet in the history, in spec order."""
        seen = {
            _record_point_key(record, self.space.axis_names)
            for record in history.to_records()
        }
        return [i for i, key in enumerate(self._keys) if key not in seen]

    def unvisited(self, history: ResultSet) -> list[dict[str, Any]]:
        """Pool points not yet present in the history, in spec order."""
        return [self.pool[i] for i in self._unvisited(history)]

    def propose(self, history: ResultSet, batch_size: int) -> list[dict[str, Any]]:
        """At most ``batch_size`` unvisited points to run next ([] = done)."""
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        remaining = self._unvisited(history)
        if not remaining:
            return []
        batch = min(batch_size, len(remaining))
        chosen = self._select(remaining, history, batch)
        if len(chosen) != batch:
            raise RuntimeError(
                f"{type(self).__name__} selected {len(chosen)} points, "
                f"expected {batch}"
            )
        return [dict(self.pool[i]) for i in chosen]

    def _select(
        self,
        remaining: list[int],
        history: ResultSet,
        batch: int,
    ) -> list[int]:
        """``batch`` of the ``remaining`` pool positions (spec order)."""
        raise NotImplementedError

    # --- shared helpers ---------------------------------------------------

    def encode(self, point: Mapping[str, Any]) -> list[float]:
        """A point's normalised feature vector (one float per axis)."""
        return [
            self._tables[name].encode(point[name]) for name in self.space.axis_names
        ]

    def scores(self, history: ResultSet) -> dict[str, float]:
        """Per-point objective values of the history (see point_objectives)."""
        return point_objectives(
            history, self.space.axis_names, self.objective, self.mode
        )

    def _stratified(self, remaining: list[int], batch: int) -> list[int]:
        """One seeded draw per contiguous stratum of the remaining pool."""
        chosen: list[int] = []
        n = len(remaining)
        for stratum in range(batch):
            lo = stratum * n // batch
            hi = max((stratum + 1) * n // batch, lo + 1)
            chosen.append(remaining[self.rng.randrange(lo, min(hi, n))])
        return chosen


class RandomStrategy(Strategy):
    """Uniform random draws from the unvisited pool."""

    name = "random"

    def _select(
        self,
        remaining: list[int],
        history: ResultSet,
        batch: int,
    ) -> list[int]:
        return self.rng.sample(remaining, batch)


class LatinHypercubeStrategy(Strategy):
    """Stratified sampling: spread each batch across the pool.

    The unvisited pool keeps its spec order (the grid's row-major layout),
    so contiguous strata correspond to contiguous regions of the slowest
    axes; one seeded draw per stratum covers the space far more evenly
    than ``batch_size`` independent uniform draws.
    """

    name = "lhs"

    def _select(
        self,
        remaining: list[int],
        history: ResultSet,
        batch: int,
    ) -> list[int]:
        return self._stratified(remaining, batch)


class RefineStrategy(Strategy):
    """Greedy zoom towards the incumbent best point.

    With history: rank unvisited points by Euclidean distance (normalised
    feature space) to the best visited point and take the nearest ones --
    the adaptive analogue of ``SweepSpec.refine`` around a promising value.
    Without history (round 0) it falls back to a stratified draw.
    """

    name = "refine"

    def _select(
        self,
        remaining: list[int],
        history: ResultSet,
        batch: int,
    ) -> list[int]:
        scores = self.scores(history)
        if not scores:
            return self._stratified(remaining, batch)
        pick = min if self.mode == "min" else max
        best_key = pick(scores, key=scores.get)
        if best_key not in self._keys:  # history from outside the pool
            return self._stratified(remaining, batch)
        best_features = self._features[self._keys.index(best_key)]
        distances = [math.dist(self._features[i], best_features) for i in remaining]
        ranked = sorted(range(len(remaining)), key=lambda i: (distances[i], i))
        return [remaining[i] for i in ranked[:batch]]


class SurrogateStrategy(Strategy):
    """Gaussian-process surrogate with expected-improvement acquisition.

    Fits a GP (RBF kernel, per the paper-standard Bayesian-optimisation
    recipe) over the visited points' objective values, scores every
    unvisited pool point by expected improvement over the incumbent, and
    proposes the top scorers.  A fraction ``jitter`` of each batch is
    replaced by stratified exploration draws so a confidently wrong
    surrogate cannot lock the campaign into a basin.

    Falls back to stratified sampling until ``min_fit`` points are visited
    (a GP over two points is noise).
    """

    name = "surrogate"

    def __init__(
        self,
        space: SweepSpec,
        objective: str,
        mode: str = "min",
        seed: int = 0,
        length_scale: float = 0.3,
        noise: float = 1e-6,
        jitter: float = 0.25,
        min_fit: int = 3,
    ) -> None:
        super().__init__(space, objective, mode, seed)
        if not 0.0 <= jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {jitter}")
        self.length_scale = length_scale
        self.noise = noise
        self.jitter = jitter
        self.min_fit = min_fit

    def _select(
        self,
        remaining: list[int],
        history: ResultSet,
        batch: int,
    ) -> list[int]:
        scores = self.scores(history)
        if len(scores) < self.min_fit:
            return self._stratified(remaining, batch)

        train_x, train_y = [], []
        for key, features in zip(self._keys, self._features):
            if key in scores:
                train_x.append(features)
                # Fit in minimisation convention; flip for max campaigns.
                train_y.append(scores[key] if self.mode == "min" else -scores[key])
        if len(train_x) < self.min_fit:
            return self._stratified(remaining, batch)

        candidates = [self._features[i] for i in remaining]
        ei = self._expected_improvement(train_x, train_y, candidates)

        n_explore = int(round(batch * self.jitter))
        n_exploit = batch - n_explore
        ranked = sorted(range(len(remaining)), key=lambda i: (-ei[i], i))
        chosen_idx = list(ranked[:n_exploit])
        if n_explore:
            taken = set(chosen_idx)
            leftover = [i for i in range(len(remaining)) if i not in taken]
            chosen_idx += self._stratified(leftover, min(n_explore, len(leftover)))
            # Top up from the EI ranking if exploration collided.
            for i in ranked:
                if len(chosen_idx) >= batch:
                    break
                if i not in set(chosen_idx):
                    chosen_idx.append(i)
        return [remaining[i] for i in chosen_idx[:batch]]

    # --- the GP itself ----------------------------------------------------

    def _kernel(self, a: "Any", b: "Any") -> "Any":
        import numpy as np

        # Squared-exponential (RBF): k(x, x') = exp(-|x - x'|^2 / 2l^2).
        sq = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1)
        return np.exp(-0.5 * sq / (self.length_scale ** 2))

    def _expected_improvement(
        self,
        train_x: list[list[float]],
        train_y: list[float],
        candidates: list[list[float]],
    ) -> list[float]:
        import numpy as np

        x = np.asarray(train_x, dtype=float)
        y = np.asarray(train_y, dtype=float)
        mean_y, std_y = float(y.mean()), float(y.std()) or 1.0
        y_n = (y - mean_y) / std_y

        k_xx = self._kernel(x, x) + self.noise * np.eye(len(x))
        try:
            from scipy.linalg import cho_factor, cho_solve

            factor = cho_factor(k_xx, lower=True)
            alpha = cho_solve(factor, y_n)

            def solve(rhs: "Any") -> "Any":
                return cho_solve(factor, rhs)
        except ImportError:  # pragma: no cover - scipy is a standard dep
            inv = np.linalg.inv(k_xx)
            alpha = inv @ y_n

            def solve(rhs: "Any") -> "Any":
                return inv @ rhs

        c = np.asarray(candidates, dtype=float)
        k_xc = self._kernel(x, c)
        mu = k_xc.T @ alpha
        var = 1.0 - (k_xc * solve(k_xc)).sum(axis=0)
        sigma = np.sqrt(np.clip(var, 1e-12, None))

        incumbent = float(y_n.min())
        z = (incumbent - mu) / sigma
        # EI = sigma * (z * Phi(z) + phi(z)) with Phi via erf -- no scipy
        # special functions needed.
        phi = np.exp(-0.5 * z ** 2) / math.sqrt(2.0 * math.pi)
        cdf = 0.5 * (1.0 + np.vectorize(math.erf)(z / math.sqrt(2.0)))
        return list((sigma * (z * cdf + phi)).astype(float))


STRATEGIES: dict[str, type[Strategy]] = {
    RandomStrategy.name: RandomStrategy,
    LatinHypercubeStrategy.name: LatinHypercubeStrategy,
    RefineStrategy.name: RefineStrategy,
    SurrogateStrategy.name: SurrogateStrategy,
}


def make_strategy(
    name: str,
    space: SweepSpec,
    objective: str,
    mode: str = "min",
    seed: int = 0,
) -> Strategy:
    """Build a registered strategy by name (``STRATEGIES`` lists them)."""
    try:
        cls = STRATEGIES[name]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; available: {sorted(STRATEGIES)}"
        )
    return cls(space, objective, mode=mode, seed=seed)
