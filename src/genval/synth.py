"""Seeded synthetic experiments standing in for a trained generator.

Training-like data comes from an isotropic Gaussian mixture whose
component means are placed with a guaranteed minimum separation. The
"generator" memorizes a training subset: it samples rows with
replacement and perturbs them with Gaussian noise, which is the limit
case of generated data resembling the data used for training.

All randomness flows through Philox counter-based generators keyed by
``(seed, stream domain, offset)``; every operation is reproducible bit
for bit from its :class:`ExperimentSpec`.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import embeddings
from .embeddings import EmbeddingMatrix, block_rows, save_embeddings
from .errors import ConfigError

_DOMAIN_MEANS = 0
_DOMAIN_MIXTURE = 1
_DOMAIN_GENERATOR = 2

X_V1_FILE = "x_v1.embx"
X_V2_FILE = "x_v2.embx"
X_TRAIN_FILE = "x_train.embx"
X_HAT_FILE = "x_hat.embx"
PARTITION_FILE = "partition.json"
MANIFEST_FILE = "experiment.json"


@dataclass(frozen=True)
class ExperimentSpec:
    dim: int = 64
    n_per_split: int = 500
    mixture_components: int = 4
    component_spread: float = 8.0
    noise_sigma: float = 0.3
    m_generated: int = 500
    seed: int = 42

    def validate(self) -> None:
        if self.dim < 1:
            raise ConfigError("dim must be >= 1")
        if self.n_per_split < 1:
            raise ConfigError("n_per_split must be >= 1")
        if self.mixture_components < 1:
            raise ConfigError("mixture_components must be >= 1")
        if not (self.component_spread > 0 and np.isfinite(self.component_spread)):
            raise ConfigError("component_spread must be positive and finite")
        if not (self.noise_sigma >= 0 and np.isfinite(self.noise_sigma)):
            raise ConfigError("noise_sigma must be >= 0 and finite")
        if self.m_generated < 1:
            raise ConfigError("m_generated must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        # numpy holds no array of more than intp-max bytes; the largest
        # here takes 8 bytes per entry of one of these row counts (the
        # float32 corpus has 2 * n_per_split rows)
        rows = max(self.n_per_split, self.m_generated, self.mixture_components)
        if rows * self.dim > np.iinfo(np.intp).max // 8:
            raise ConfigError(f"{rows} rows of dim {self.dim} exceed numpy's array size limit")


def _rng(seed: int, domain: int, offset: int = 0) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence([seed, domain, offset]))
    )


# overflow gives inf: a row's is reported, a distance's clears the floor
@np.errstate(over="ignore")
def component_means(spec: ExperimentSpec) -> np.ndarray:
    """Mixture component means, pairwise at least component_spread apart.

    Proposals are rejected until they clear the separation floor; the
    proposal scale grows when rejections pile up, so placement always
    terminates.
    """
    spec.validate()
    rng = _rng(spec.seed, _DOMAIN_MEANS)
    means: list[np.ndarray] = []
    scale = spec.component_spread
    rejections = 0
    while len(means) < spec.mixture_components:
        candidate = scale * rng.standard_normal(spec.dim)
        _check_range(candidate, "component_spread", spec.component_spread)
        dists = [float(np.linalg.norm(candidate - m)) for m in means]
        if not means or min(dists) >= spec.component_spread:
            means.append(candidate)
        else:
            rejections += 1
            if rejections % 100 == 0:
                scale *= 1.5
    return np.stack(means)


def sample_mixture(spec: ExperimentSpec, count: int, stream: int = 0) -> EmbeddingMatrix:
    """Draw ``count`` points; ``stream`` selects an independent substream."""
    spec.validate()
    if count < 1:
        raise ConfigError("count must be >= 1")
    out = np.empty((count, spec.dim), dtype=np.float32)
    _draw_mixture(spec, out, stream)
    return EmbeddingMatrix(out)


@np.errstate(over="ignore")
def _draw_mixture(spec: ExperimentSpec, out: np.ndarray, stream: int) -> None:
    """Write ``sample_mixture``'s rows into the float32 rows ``out``; the
    normals, drawn one block of rows at a time, continue one stream."""
    means = component_means(spec)
    rng = _rng(spec.seed, _DOMAIN_MIXTURE, stream)
    comp = rng.integers(0, spec.mixture_components, size=len(out))
    # two float64 rows of scratch per row: the normals and their means
    b = block_rows(16 * spec.dim, embeddings.BLOCK_BYTES // 4)
    block = np.empty((min(b, len(out)), spec.dim))
    for lo in range(0, len(out), b):
        rows = block[: len(out) - lo]
        rng.standard_normal(out=rows)
        rows += means[comp[lo : lo + len(rows)]]
        out[lo : lo + len(rows)] = rows
    _check_range(out, "component_spread", spec.component_spread)


@np.errstate(over="ignore")
def simulate_generated(training_subset: EmbeddingMatrix, spec: ExperimentSpec) -> EmbeddingMatrix:
    """Memorizing generator: resample training rows plus isotropic noise."""
    spec.validate()
    if training_subset.count < 1:
        raise ConfigError("training subset is empty")
    rng = _rng(spec.seed, _DOMAIN_GENERATOR)
    picks = rng.integers(0, training_subset.count, size=spec.m_generated)
    base = training_subset.data[picks].astype(np.float64)
    base += spec.noise_sigma * rng.standard_normal((spec.m_generated, training_subset.dim))
    out = base.astype(np.float32)
    _check_range(out, "noise_sigma", spec.noise_sigma)
    return EmbeddingMatrix(out)


def _check_range(rows: np.ndarray, option: str, value: float) -> None:
    """Blame ``option`` = ``value`` for a row that overflowed to inf."""
    if not np.isfinite(rows).all():
        raise ConfigError(f"{option} {value:g} puts synthetic rows beyond float32 range")


def make_ra2_experiment(spec: ExperimentSpec, out_dir) -> dict[str, Path]:
    """Write the two-split experiment to disk and return its file map.

    Emits: the two disjoint splits, their concatenation (the matching
    corpus, split rows first), the generated set derived from split 1
    only, a group partition over the concatenated row indices, and a
    JSON manifest recording the generating :class:`ExperimentSpec`.
    """
    spec.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n = spec.n_per_split
    # the splits are the two halves of the corpus, so no step copies them
    train = np.empty((2 * n, spec.dim), dtype=np.float32)
    _draw_mixture(spec, train[:n], stream=0)
    _draw_mixture(spec, train[n:], stream=1)
    x_train = EmbeddingMatrix(train)
    x_v1, x_v2 = EmbeddingMatrix(x_train.data[:n]), EmbeddingMatrix(x_train.data[n:])
    x_hat = simulate_generated(x_v1, spec)

    files = {
        "x_v1": out / X_V1_FILE,
        "x_v2": out / X_V2_FILE,
        "x_train": out / X_TRAIN_FILE,
        "x_hat": out / X_HAT_FILE,
        "partition": out / PARTITION_FILE,
        "manifest": out / MANIFEST_FILE,
    }
    save_embeddings(x_v1, files["x_v1"])
    save_embeddings(x_v2, files["x_v2"])
    save_embeddings(x_train, files["x_train"])
    save_embeddings(x_hat, files["x_hat"])
    # free the corpus, so the partition's Python lists never sit on top of it
    del train, x_train, x_v1, x_v2, x_hat

    partition = {
        "v1": list(range(n)),
        "v2": list(range(n, 2 * n)),
    }
    files["partition"].write_text(json.dumps(partition) + "\n")

    manifest = {
        "spec": asdict(spec),
        "files": {name: path.name for name, path in files.items() if name != "manifest"},
        "counts": {"x_v1": n, "x_v2": n, "x_train": 2 * n, "x_hat": spec.m_generated},
    }
    files["manifest"].write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return files
