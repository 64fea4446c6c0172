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
from contextlib import ExitStack
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import embeddings
# save_embeddings is looked up here by bench/tracer.py, which wraps it
from .embeddings import EmbeddingMatrix, all_finite, block_rows, exact_sq_dists, save_embeddings  # noqa: F401
from .errors import ConfigError

_DOMAIN_MEANS = 0
_DOMAIN_MIXTURE = 1
_DOMAIN_GENERATOR = 2

_INDEX_CHUNK = 4096  # indices per write to partition.json


@dataclass(frozen=True)
class ExperimentSpec:
    dim: int = 64
    n_per_split: int = 500
    mixture_components: int = 4
    component_spread: float = 8.0
    noise_sigma: float = 0.3
    m_generated: int = 500
    seed: int = 42

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.dim < 1:
            raise ConfigError("dim must be >= 1")
        if self.n_per_split < 1:
            raise ConfigError("n_per_split must be >= 1")
        if self.mixture_components < 1:
            raise ConfigError("mixture_components must be >= 1")
        if not (self.component_spread > 0 and np.isfinite(self.component_spread)):
            raise ConfigError("component_spread must be positive and finite")
        # means are placed by squared distance, which must not underflow
        if self.component_spread * self.component_spread < np.finfo(np.float64).smallest_normal:
            raise ConfigError(
                f"component_spread {float(self.component_spread)!r} is too small: "
                "its square is below float64's smallest normal number"
            )
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
    rng = _rng(spec.seed, _DOMAIN_MEANS)
    means = np.empty((spec.mixture_components, spec.dim))
    scale = spec.component_spread
    placed = rejections = 0
    while placed < spec.mixture_components:
        candidate = scale * rng.standard_normal(spec.dim)
        _check_range(candidate, "component_spread", spec.component_spread)
        if not placed or np.sqrt(exact_sq_dists(means[:placed], candidate)).min() >= spec.component_spread:
            means[placed] = candidate
            placed += 1
        else:
            rejections += 1
            if rejections % 100 == 0:
                scale *= 1.5
    return means


def sample_mixture(spec: ExperimentSpec, count: int, stream: int = 0) -> EmbeddingMatrix:
    """Draw ``count`` points; ``stream`` selects an independent substream."""
    if count < 1:
        raise ConfigError("count must be >= 1")
    return EmbeddingMatrix(_gather(_mixture_blocks(spec, count, stream), count, spec.dim))


def simulate_generated(training_subset: EmbeddingMatrix, spec: ExperimentSpec) -> EmbeddingMatrix:
    """Memorizing generator: resample training rows plus isotropic noise."""
    if training_subset.count < 1:
        raise ConfigError("training subset is empty")
    rng = _rng(spec.seed, _DOMAIN_GENERATOR)
    # the picks come first in the stream; each block gathers its own rows
    picks = rng.integers(0, training_subset.count, size=spec.m_generated)
    m, dim, rows = spec.m_generated, training_subset.dim, training_subset.data
    blocks = _draw_blocks(rng, lambda lo, hi: rows[picks[lo:hi]], spec.noise_sigma, m, dim,
                          "noise_sigma", spec.noise_sigma)
    return EmbeddingMatrix(_gather(blocks, m, dim))


def _gather(blocks, count: int, dim: int) -> np.ndarray:
    """The float32 rows of ``blocks``, ``count`` in all, in one array."""
    out = np.empty((count, dim), dtype=np.float32)
    lo = 0
    for rows in blocks:
        out[lo : lo + len(rows)] = rows
        lo += len(rows)
    return out


def _draw_blocks(rng: np.random.Generator, base, scale: float, count: int, dim: int,
                 option: str, value: float):
    """Yield ``count`` rows of ``dim`` as float32 blocks: ``scale`` times
    normals that continue ``rng``'s stream, plus the rows ``base(lo, hi)``,
    summed in float64. An overflow in a block is blamed on ``option`` =
    ``value``. Every block reuses one float64 and one float32 buffer,
    sized by two float64 rows a row in a sixteenth of ``BLOCK_BYTES``."""
    b = min(count, block_rows(16 * dim, embeddings.BLOCK_BYTES // 16))
    block = np.empty((b, dim))
    out = np.empty((b, dim), dtype=np.float32)
    for lo in range(0, count, b):
        rows, rows32 = block[: count - lo], out[: count - lo]
        rng.standard_normal(out=rows)
        # overflow gives inf, which the check reports
        with np.errstate(over="ignore"):
            rows *= scale
            rows += base(lo, lo + len(rows))
            rows32[...] = rows
        _check_range(rows32, option, value)
        yield rows32


def _mixture_blocks(spec: ExperimentSpec, count: int, stream: int):
    """Yield ``sample_mixture``'s ``count`` rows as float32 blocks: each
    row is its component's mean plus normals from ``stream``."""
    means = component_means(spec)
    rng = _rng(spec.seed, _DOMAIN_MIXTURE, stream)
    comp = rng.integers(0, spec.mixture_components, size=count)
    return _draw_blocks(rng, lambda lo, hi: means[comp[lo:hi]], 1.0, count, spec.dim,
                        "component_spread", spec.component_spread)


def _check_range(rows: np.ndarray, option: str, value: float) -> None:
    """Blame ``option`` = ``value`` for a row that overflowed to inf."""
    if not all_finite(rows):
        raise ConfigError(f"{option} {value:g} puts synthetic rows beyond float32 range")


def make_ra2_experiment(spec: ExperimentSpec, out_dir) -> dict[str, Path]:
    """Write the two-split experiment to disk and return its file map.

    Emits: the two disjoint splits, their concatenation (the matching
    corpus, split rows first), the generated set derived from split 1
    only, a group partition over the concatenated row indices, and a
    JSON manifest recording the generating :class:`ExperimentSpec`.

    Each split is drawn and written one block of rows at a time, to its
    own file and to the corpus's, so no corpus or split is held. The
    generator's picks come first in its stream: the picked rows are
    gathered as split 1's blocks pass, and its noise drawn after. Every
    file is replaced together or none is: each goes through
    ``embeddings.replacing``, renamed once all six are written.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n, m, dim = spec.n_per_split, spec.m_generated, spec.dim
    # the experiment's matrices and their rows, in the order they are written
    counts = {"x_v1": n, "x_v2": n, "x_train": 2 * n, "x_hat": m}
    files = {name: out / f"{name}.embx" for name in counts}
    files.update(partition=out / "partition.json", manifest=out / "experiment.json")
    gen_rng = _rng(spec.seed, _DOMAIN_GENERATOR)
    picks = gen_rng.integers(0, n, size=m)
    order = np.argsort(picks, kind="stable")
    sorted_picks = picks[order]
    picked = np.empty((m, dim), dtype=np.float32)

    with ExitStack() as stack:
        x_v1, x_v2, x_train, x_hat = (
            stack.enter_context(embeddings.writing_embx(files[name], count, dim))
            for name, count in counts.items())
        # the picks, sorted once, fall in a block as one run of them
        lo = 0
        for rows in _mixture_blocks(spec, n, stream=0):
            x_v1(rows)
            x_train(rows)
            a, b = np.searchsorted(sorted_picks, (lo, lo + len(rows)))
            picked[order[a:b]] = rows[sorted_picks[a:b] - lo]
            lo += len(rows)
        for rows in _mixture_blocks(spec, n, stream=1):
            x_v2(rows)
            x_train(rows)
        for rows in _draw_blocks(gen_rng, lambda lo, hi: picked[lo:hi], spec.noise_sigma, m, dim,
                                 "noise_sigma", spec.noise_sigma):
            x_hat(rows)

        fh = stack.enter_context(embeddings.replacing(files["partition"], text=True))
        fh.write('{"v1": ')
        _write_index_list(fh, 0, n)
        fh.write(', "v2": ')
        _write_index_list(fh, n, 2 * n)
        fh.write("}\n")

        manifest = {"spec": asdict(spec), "counts": counts,
                    "files": {name: path.name for name, path in files.items() if name != "manifest"}}
        fh = stack.enter_context(embeddings.replacing(files["manifest"], text=True))
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return files


def _write_index_list(fh, lo: int, hi: int) -> None:
    """Write ``json.dumps(list(range(lo, hi)))`` to ``fh``, ``_INDEX_CHUNK``
    indices at a time, so the list is never built."""
    fh.write("[")
    for a in range(lo, hi, _INDEX_CHUNK):
        fh.write((", " if a > lo else "") + ", ".join(map(str, range(a, min(a + _INDEX_CHUNK, hi)))))
    fh.write("]")
