import errno
import json

import numpy as np
import pytest

from conftest import assert_one_error_line, run_cli, traced_peak
from genval import embeddings, synth
from genval import (
    EmbeddingMatrix,
    ExperimentSpec,
    batch_match,
    component_means,
    load_embeddings,
    make_ra2_experiment,
    sample_mixture,
    simulate_generated,
)
from genval.embeddings import exact_sq_dists
from genval.errors import ConfigError


def test_experiment_spec_validation():
    ExperimentSpec().validate()
    for bad in (
        dict(dim=0),
        dict(n_per_split=0),
        dict(mixture_components=0),
        dict(component_spread=0.0),
        dict(component_spread=float("inf")),
        dict(component_spread=1e-320),
        dict(component_spread=1.4e-154),
        dict(noise_sigma=-0.1),
        dict(m_generated=0),
    ):
        with pytest.raises(ConfigError):
            ExperimentSpec(**bad).validate()


def test_a_bad_spec_is_refused_when_made():
    with pytest.raises(ConfigError, match=r"^dim must be >= 1$"):
        ExperimentSpec(dim=0)


def test_a_spread_whose_square_underflows_is_refused():
    """Means are placed by squared distance: a spread whose square is no
    normal float64 is refused at once, rather than rejected until the
    proposal scale has grown by some 10^166; one just above is placed."""
    with pytest.raises(ConfigError, match=r"^component_spread 1e-320 is too small: its square is below"):
        ExperimentSpec(component_spread=1e-320).validate()
    spec = ExperimentSpec(dim=4, mixture_components=2, component_spread=1.5e-154, seed=1)
    means = component_means(spec)
    assert np.sqrt(exact_sq_dists(means[:1], means[1]))[0] >= 1.5e-154


def test_component_means_respect_separation():
    spec = ExperimentSpec(dim=8, mixture_components=6, component_spread=5.0, seed=3)
    means = component_means(spec)
    assert means.shape == (6, 8)
    for i in range(6):
        for j in range(i + 1, 6):
            assert np.linalg.norm(means[i] - means[j]) >= 5.0


def test_component_means_terminate_when_separation_is_hard():
    # cramming 8 well-separated means into 2 dimensions forces the
    # proposal scale to grow; this must still finish and satisfy the floor
    spec = ExperimentSpec(dim=2, mixture_components=8, component_spread=6.0, seed=1)
    means = component_means(spec)
    d = np.linalg.norm(means[:, None] - means[None, :], axis=-1)
    assert d[np.triu_indices(8, 1)].min() >= 6.0


def test_component_means_grow_the_proposal_scale(monkeypatch):
    """Twelve means 1 apart on a line: draws at the starting scale (1)
    pile up over 100 rejections, and the grown scale places the rest."""
    tests = []
    monkeypatch.setattr(synth, "exact_sq_dists", lambda *a: tests.append(1) or exact_sq_dists(*a))
    spec = ExperimentSpec(dim=1, mixture_components=12, component_spread=1.0, seed=0)
    means = component_means(spec)
    # every test but the first mean's is a rejection or one of 11 placements
    assert len(tests) - 11 >= 100
    gaps = np.diff(np.sort(means[:, 0]))
    assert gaps.min() >= 1.0
    monkeypatch.undo()
    assert component_means(spec).tobytes() == means.tobytes()


def stacked_component_means(spec):
    """``component_means`` placed by stacking every earlier mean for each
    proposal, the reference for its one preallocated array."""
    rng = synth._rng(spec.seed, synth._DOMAIN_MEANS)
    means, scale, rejections = [], spec.component_spread, 0
    while len(means) < spec.mixture_components:
        candidate = scale * rng.standard_normal(spec.dim)
        if not means or np.sqrt(exact_sq_dists(np.stack(means), candidate)).min() >= spec.component_spread:
            means.append(candidate)
        else:
            rejections += 1
            if rejections % 100 == 0:
                scale *= 1.5
    return np.stack(means)


@pytest.mark.parametrize("dim, components", [(2, 300), (64, 6), (9_000, 6)])
def test_component_means_are_the_stacking_loops_bytes(dim, components):
    # at d = 9 000 the second mean is tested against a lone row, which
    # einsum sums in pieces
    spec = ExperimentSpec(dim=dim, mixture_components=components, seed=7)
    assert component_means(spec).tobytes() == stacked_component_means(spec).tobytes()


def test_single_draw():
    spec = ExperimentSpec(dim=16, seed=5)
    m = sample_mixture(spec, 1)
    assert (m.count, m.dim) == (1, 16)
    assert np.isfinite(m.data).all()


def test_sampling_is_deterministic():
    spec = ExperimentSpec(seed=11)
    a = sample_mixture(spec, 50)
    b = sample_mixture(spec, 50)
    assert a == b
    assert sample_mixture(spec, 50, stream=1) != a
    assert sample_mixture(ExperimentSpec(seed=12), 50) != a


def test_law_of_large_numbers_single_component():
    spec = ExperimentSpec(dim=32, mixture_components=1, seed=21)
    mu = component_means(spec)[0]
    draws = sample_mixture(spec, 10_000)
    sample_mean = draws.data.astype(np.float64).mean(axis=0)
    # unit component variance: the mean of 10k draws sits within 5 sigma/sqrt(n)
    assert np.all(np.abs(sample_mean - mu) <= 5.0 / np.sqrt(10_000))


def one_shot_mixture(spec, count, stream):
    """``sample_mixture``'s rows drawn in one piece, in float64."""
    rng = synth._rng(spec.seed, synth._DOMAIN_MIXTURE, stream)
    comp = rng.integers(0, spec.mixture_components, size=count)
    return component_means(spec)[comp] + rng.standard_normal((count, spec.dim))


@pytest.mark.parametrize("dim, count, block", [(1, 30, 7), (5, 29, 4), (5, 3, 4), (3000, 61, 20)])
def test_blocked_draws_equal_one_draw(monkeypatch, dim, count, block):
    """Blocks of normals continue one stream; a count that is not a
    multiple of the block leaves a short last block."""
    monkeypatch.setattr(embeddings, "BLOCK_BYTES", 16 * block * 16 * dim)
    spec = ExperimentSpec(dim=dim, mixture_components=3, seed=9)
    for stream in (0, 1):
        want = one_shot_mixture(spec, count, stream).astype(np.float32)
        assert sample_mixture(spec, count, stream).data.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim, m, block", [(1, 30, 7), (5, 29, 4), (3000, 61, 20)])
@pytest.mark.parametrize("sigma", [0.0, 0.3, 2.5])
def test_blocked_generator_equals_one_draw(monkeypatch, dim, m, block, sigma):
    """The generator's blocks of normals continue one stream too: at
    three or more blocks, the last one short, its rows are the picked
    rows plus sigma times one (m, dim) draw, summed in float64."""
    monkeypatch.setattr(embeddings, "BLOCK_BYTES", 16 * block * 16 * dim)
    spec = ExperimentSpec(dim=dim, noise_sigma=sigma, m_generated=m, seed=9)
    subset = sample_mixture(spec, 50)
    rng = synth._rng(spec.seed, synth._DOMAIN_GENERATOR)
    picked = subset.data[rng.integers(0, subset.count, size=m)]
    want = (picked + sigma * rng.standard_normal((m, dim))).astype(np.float32)
    assert simulate_generated(subset, spec).data.tobytes() == want.tobytes()


def test_experiment_splits_are_the_mixture_draws(tmp_path):
    spec = ExperimentSpec(dim=6, n_per_split=25, m_generated=5, seed=2)
    files = make_ra2_experiment(spec, tmp_path)
    for stream, name in enumerate(("x_v1", "x_v2")):
        assert load_embeddings(files[name]) == sample_mixture(spec, 25, stream)


def test_mixture_draws_convert_one_block_at_a_time():
    """Guards peak memory: besides the float32 rows, drawing holds a
    sixteenth of the block budget in float64 rows (the normals and their
    means), a float32 block and the component labels."""
    spec = ExperimentSpec(dim=128, n_per_split=10_000, seed=1)
    rows32 = spec.n_per_split * spec.dim * 4
    peak = traced_peak(lambda: sample_mixture(spec, spec.n_per_split))
    assert peak < rows32 + embeddings.BLOCK_BYTES // 8, f"peak {peak / 2**20:.2f} MiB"


def test_zero_noise_generator_memorizes_exactly():
    spec = ExperimentSpec(dim=6, n_per_split=40, noise_sigma=0.0, m_generated=25, seed=2)
    train = sample_mixture(spec, 40)
    gen = simulate_generated(train, spec)
    assert gen.count == 25
    train_rows = {r.tobytes() for r in train.data}
    for row in gen.data:
        assert row.tobytes() in train_rows
    # composition with exact search: every top-1 distance is zero
    t = batch_match(train, gen, k=1)
    assert np.all(t.distances[:, 0] == 0.0)


def test_generator_noise_scale(rng):
    spec = ExperimentSpec(dim=64, n_per_split=50, noise_sigma=0.3, m_generated=400, seed=8)
    train = sample_mixture(spec, 50)
    gen = simulate_generated(train, spec)
    d = batch_match(train, gen, k=1).distances[:, 0]
    # nearest-neighbour distance concentrates around sigma*sqrt(dim) = 2.4
    assert 1.5 < np.median(d) < 3.5


def test_experiment_directory_contents(tmp_path):
    spec = ExperimentSpec(dim=8, n_per_split=20, m_generated=15, seed=4)
    files = make_ra2_experiment(spec, tmp_path / "exp")
    v1 = load_embeddings(files["x_v1"])
    v2 = load_embeddings(files["x_v2"])
    train = load_embeddings(files["x_train"])
    hat = load_embeddings(files["x_hat"])
    assert v1.count == v2.count == 20
    assert train.count == 40
    assert hat.count == 15
    # the matching corpus is the two splits stacked, split-1 rows first
    np.testing.assert_array_equal(train.data[:20], v1.data)
    np.testing.assert_array_equal(train.data[20:], v2.data)

    partition = json.loads(files["partition"].read_text())
    assert partition == {"v1": list(range(20)), "v2": list(range(20, 40))}

    manifest = json.loads(files["manifest"].read_text())
    assert manifest["counts"] == {"x_v1": 20, "x_v2": 20, "x_train": 40, "x_hat": 15}
    assert manifest["spec"]["seed"] == 4


def test_splits_share_no_row(tmp_path):
    files = make_ra2_experiment(ExperimentSpec(seed=42), tmp_path / "exp")
    v1 = load_embeddings(files["x_v1"])
    v2 = load_embeddings(files["x_v2"])
    rows1 = {r.tobytes() for r in v1.data}
    assert all(r.tobytes() not in rows1 for r in v2.data)


def test_rerun_is_byte_identical(tmp_path):
    spec = ExperimentSpec(dim=8, n_per_split=12, m_generated=9, seed=33)
    a = make_ra2_experiment(spec, tmp_path / "a")
    b = make_ra2_experiment(spec, tmp_path / "b")
    for name in a:
        assert a[name].read_bytes() == b[name].read_bytes(), name


def test_generator_converts_only_the_rows_it_picks(rng):
    """Guards peak memory: no float64 copy of the training subset."""
    subset = EmbeddingMatrix(rng.standard_normal((20_000, 64)).astype(np.float32))
    peak = traced_peak(lambda: simulate_generated(subset, ExperimentSpec(m_generated=10)))
    assert peak < subset.data.nbytes, f"peak {peak / 2**20:.1f} MiB"


def test_generator_draws_into_two_reused_blocks(rng):
    """Guards peak memory: besides the generated rows, float32, and the
    picked indices, int64, the generator holds one float64 and one
    float32 block and a block of gathered picks, a sixteenth of the block
    budget in all, plus numpy's 64 KiB buffer that casts the picks to
    float64; a copy of all the picked rows, or the normals and their
    scaled copy fresh for each block, come to more."""
    subset = EmbeddingMatrix(rng.standard_normal((2000, 128)).astype(np.float32))
    spec = ExperimentSpec(dim=128, m_generated=2000, seed=3)
    rows32 = spec.m_generated * spec.dim * 4
    peak = traced_peak(lambda: simulate_generated(subset, spec))
    bound = rows32 + 8 * spec.m_generated + embeddings.BLOCK_BYTES // 16 + (128 << 10)
    assert peak < bound, f"peak {peak / 2**20:.2f} MiB"


def test_experiment_holds_no_corpus(tmp_path):
    """Guards peak memory: at value-exact's shape (2 x 10 000 x 128, a
    float32 corpus of 9.77 MiB, and 500 generated rows) each split is
    drawn and written a block of rows at a time, so the experiment
    allocates under a third of the corpus: a sixteenth of the block
    budget of float64 rows, a float32 block, a split's component labels,
    the picked rows (250 KiB) and the files' buffers."""
    spec = ExperimentSpec(dim=128, n_per_split=10_000, m_generated=500, seed=1)
    corpus32 = 2 * spec.n_per_split * spec.dim * 4
    peak = traced_peak(lambda: make_ra2_experiment(spec, tmp_path))
    assert peak < corpus32 // 3, f"peak {peak / 2**20:.2f} MiB"


def test_a_failed_block_leaves_the_older_experiment_whole(tmp_path, monkeypatch):
    """synth replaces the whole set or nothing: a block of split 2 that
    fails, here as a full disk does, leaves every file of the experiment
    already in the directory as it was, and no temporary file."""
    old = ["synth", "--out-dir", tmp_path, "--dim", 4, "--n-per-split", 40, "--m", 7, "--seed", 1]
    assert run_cli(*old).code == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert len(before) == 6
    draw = synth._mixture_blocks

    def failing(spec, count, stream):
        for i, rows in enumerate(draw(spec, count, stream)):
            if (stream, i) == (1, 2):
                raise OSError(errno.ENOSPC, "No space left on device")
            yield rows

    monkeypatch.setattr(synth, "_mixture_blocks", failing)
    # 8 rows a block: each split of 40 rows takes 5 blocks
    monkeypatch.setattr(embeddings, "BLOCK_BYTES", 16 * 8 * 16 * 4)
    assert_one_error_line(run_cli(*old[:-1], 2), "No space left on device")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
