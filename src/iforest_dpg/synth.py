"""Synthetic single-cluster datasets with controlled feature-wise outlier injection.

Base samples come from an axis-aligned Gaussian; each injection shifts chosen
features of one sample by +/- k standard deviations, where the deviation is
measured over the full pre-alteration dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .forest import INLIER, OUTLIER, Dataset

DEFAULT_FIXTURE_SEED = 7


@dataclass(frozen=True)
class InjectionSpec:
    """One outlier: which sample, which features, how far and in which direction.

    `sample` None means the generator picks a not-yet-injected row at random.
    Directions are +1 or -1; factors are the shift magnitudes in sigma units.
    """

    altered_features: tuple[int, ...]
    factors: tuple[float, ...]
    directions: tuple[int, ...]
    sample: int | None = None

    def __post_init__(self) -> None:
        k = len(self.altered_features)
        if k == 0:
            raise ValueError("injection must alter at least one feature")
        if len(set(self.altered_features)) != k:
            raise ValueError("altered feature indices must be distinct")
        if len(self.factors) != k or len(self.directions) != k:
            raise ValueError("factors and directions must match altered_features")
        if any(f <= 0 for f in self.factors):
            raise ValueError("factors must be positive")
        if any(d not in (-1, 1) for d in self.directions):
            raise ValueError("directions must be +1 or -1")


@dataclass(frozen=True)
class SynthConfig:
    n_samples: int = 200
    n_features: int = 6
    cluster_means: tuple[float, ...] | None = None
    cluster_stds: tuple[float, ...] | None = None
    injections: tuple[InjectionSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_samples < 2:
            raise ValueError(f"n_samples must be >= 2, got {self.n_samples}")
        if self.n_features < 1:
            raise ValueError("n_features must be >= 1")
        if len(self.injections) >= self.n_samples:
            raise ValueError("injection count must be below n_samples")
        for spec in self.injections:
            if any(f >= self.n_features for f in spec.altered_features):
                raise ValueError("altered feature index out of range")
            if spec.sample is not None and not 0 <= spec.sample < self.n_samples:
                raise ValueError("explicit sample index out of range")
        explicit = [s.sample for s in self.injections if s.sample is not None]
        if len(set(explicit)) != len(explicit):
            raise ValueError("explicit injected sample indices must be distinct")
        if self.cluster_means is not None and len(self.cluster_means) != self.n_features:
            raise ValueError("cluster_means length must equal n_features")
        if self.cluster_stds is not None:
            if len(self.cluster_stds) != self.n_features:
                raise ValueError("cluster_stds length must equal n_features")
            if any(s <= 0 for s in self.cluster_stds):
                raise ValueError("cluster_stds must be positive")

    def means(self) -> np.ndarray:
        if self.cluster_means is None:
            return np.zeros(self.n_features)
        return np.asarray(self.cluster_means, dtype=np.float64)

    def stds(self) -> np.ndarray:
        if self.cluster_stds is None:
            return np.ones(self.n_features)
        return np.asarray(self.cluster_stds, dtype=np.float64)


@dataclass(frozen=True)
class InjectionRecord:
    """One altered cell: sample, feature, initial, final, alteration (= final - initial)."""

    sample: int
    feature: int
    initial: float
    final: float
    alteration: float
    sigma: float


def _apply_injections(
    base: np.ndarray,
    resolved: list[tuple[int, InjectionSpec]],
) -> tuple[np.ndarray, list[InjectionRecord]]:
    """Shift features of the resolved (sample, spec) pairs by +/- k * sigma_f.

    sigma_f is the per-feature standard deviation of the pre-alteration data.
    """
    sigma = base.std(axis=0)
    out = base.copy()
    log: list[InjectionRecord] = []
    for sample, spec in resolved:
        for f, k, direction in zip(spec.altered_features, spec.factors, spec.directions):
            initial = float(base[sample, f])
            final = initial + direction * k * float(sigma[f])
            out[sample, f] = final
            log.append(
                InjectionRecord(
                    sample=sample,
                    feature=f,
                    initial=initial,
                    final=final,
                    alteration=final - initial,
                    sigma=float(sigma[f]),
                )
            )
    return out, log


def _ground_truth(n: int, injected: list[int]) -> np.ndarray:
    labels = np.full(n, INLIER, dtype="<U7")
    labels[injected] = OUTLIER
    return labels


def generate(config: SynthConfig) -> tuple[Dataset, list[InjectionRecord]]:
    """Draw the Gaussian cluster, apply injections, and return data plus log.

    Deterministic for a given seed: the base matrix is drawn first, then
    random sample choices are resolved in injection order.
    """
    rng = np.random.default_rng(config.seed)
    base = config.means() + config.stds() * rng.standard_normal(
        (config.n_samples, config.n_features)
    )
    taken = {s.sample for s in config.injections if s.sample is not None}
    resolved: list[tuple[int, InjectionSpec]] = []
    for spec in config.injections:
        if spec.sample is not None:
            resolved.append((spec.sample, spec))
            continue
        available = sorted(set(range(config.n_samples)) - taken)
        pick = available[int(rng.integers(len(available)))]
        taken.add(pick)
        resolved.append((pick, spec))

    features, log = _apply_injections(base, resolved)
    labels = _ground_truth(config.n_samples, [s for s, _ in resolved])
    names = [f"F{i}" for i in range(config.n_features)]
    return Dataset(features=features, feature_names=names, labels=labels), log


# Cluster location/scale for the reference fixtures. Arbitrary but fixed, so
# fixture output stays in a familiar numeric range.
FIXTURE_MEANS = (-2.0, 9.0, 4.5, 2.5, -6.0, -7.0)
FIXTURE_STDS = (1.10, 0.98, 0.99, 1.20, 1.02, 1.07)

# Injection layouts: (altered features, sigma factors, directions, target
# pre-alteration z-profile). The injected row is the one closest to the
# target profile, which pins the post-alteration geometry (how extreme each
# altered feature ends up) across seeds instead of leaving it to the luck of
# the draw. Note fixture one shifts F3 down from a row that starts high on
# F3, so F3 ends mild while F0/F4/F5 end far outside the cluster.
_FIXTURE_ONE_INJECTION = (
    (0, 3, 4, 5),
    (4.0, 4.0, 5.0, 5.0),
    (1, -1, 1, 1),
    {0: -0.1, 3: 1.5, 4: 0.0, 5: -0.2},
)
_FIXTURE_TWO_INJECTIONS = (
    ((0, 1), (4.0, 4.0), (1, 1), {0: 0.0, 1: 0.9}),
    ((0, 2), (4.0, 4.0), (1, -1), {0: 0.5, 2: 1.0}),
    ((0, 3, 4, 5), (5.0, 5.0, 5.0, 5.0), (1, -1, 1, 1), {0: 0.0, 3: 1.5, 4: -1.5, 5: -1.5}),
    ((1, 3), (4.0, 4.0), (1, -1), {1: 0.9, 3: -1.0}),
)


def _profile_matched_fixture(
    seed: int, layouts: tuple
) -> tuple[Dataset, list[InjectionRecord]]:
    config = SynthConfig(
        n_samples=200,
        n_features=6,
        cluster_means=FIXTURE_MEANS,
        cluster_stds=FIXTURE_STDS,
        seed=seed,
    )
    rng = np.random.default_rng(seed)
    base = config.means() + config.stds() * rng.standard_normal(
        (config.n_samples, config.n_features)
    )
    z = (base - base.mean(axis=0)) / base.std(axis=0)

    chosen: list[int] = []
    for _, _, _, profile in layouts:
        dist = np.zeros(len(base))
        for f, target in profile.items():
            dist += (z[:, f] - target) ** 2
        dist[chosen] = np.inf
        chosen.append(int(np.argmin(dist)))

    # Relocate the matched rows to the front so the injected samples are
    # 0..k-1 in the emitted dataset and log.
    rest = [i for i in range(len(base)) if i not in chosen]
    base = base[chosen + rest]

    resolved = [
        (i, InjectionSpec(altered_features=feats, factors=facs, directions=dirs, sample=i))
        for i, (feats, facs, dirs, _) in enumerate(layouts)
    ]
    features, log = _apply_injections(base, resolved)
    labels = _ground_truth(config.n_samples, [s for s, _ in resolved])
    names = [f"F{i}" for i in range(config.n_features)]
    return Dataset(features=features, feature_names=names, labels=labels), log


def fixture_one(seed: int = DEFAULT_FIXTURE_SEED) -> tuple[Dataset, list[InjectionRecord]]:
    """200 x 6 cluster with one injected outlier: F0 +4s, F3 -4s, F4 +5s, F5 +5s."""
    return _profile_matched_fixture(seed, (_FIXTURE_ONE_INJECTION,))


def fixture_two(seed: int = DEFAULT_FIXTURE_SEED) -> tuple[Dataset, list[InjectionRecord]]:
    """200 x 6 cluster with four injected outliers altering 2-4 features each."""
    return _profile_matched_fixture(seed, _FIXTURE_TWO_INJECTIONS)
