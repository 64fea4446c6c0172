"""Release gates for the assembled engine, one verdict line per gate.

Each test emits ``[ACCEPTANCE] PASS/FAIL <gate>: <measurements>`` before
asserting; conftest replays the collected lines in a terminal-summary
section so they land in CI logs despite pytest's capture.  Tolerances sit
inline next to each check.
"""

import re
import time

import numpy as np
from numpy.random import Generator, Philox, SeedSequence

import reference
from conftest import ACCEPTANCE_LINES, run_cli
from genval import (
    EmbeddingMatrix,
    ExperimentSpec,
    PQConfig,
    aggregate_values,
    batch_match,
    discount_scores,
    encode,
    exact_wasserstein,
    quantization_error,
    recall_at_k,
    sample_mixture,
    simulate_generated,
    train_codebooks,
    welch_t_test,
)


def check(gate: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    line = f"[ACCEPTANCE] {verdict} {gate}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert passed, f"{gate}: {detail}"


def two_split_arrays(seed, n, m, dim=64):
    """Training corpus and generated set laid out like the synth experiment:
    rows 0..n-1 are split v1 (the generator's source), rows n..2n-1 split v2.
    """
    spec = ExperimentSpec(dim=dim, n_per_split=n, m_generated=m, seed=seed)
    v1 = sample_mixture(spec, n, stream=0)
    v2 = sample_mixture(spec, n, stream=1)
    x_hat = simulate_generated(v1, spec)
    train = EmbeddingMatrix(np.concatenate([v1.data, v2.data]))
    return train, x_hat


# ------------------------------------------------- end-to-end split separation


def test_end_to_end_split_separation(tmp_path):
    # Timed CLI leg at the default experiment size, seed 42: the split the
    # generator memorized must collect >= 5x the mean value of the held-out
    # split, with one-sided Welch p < 0.01, inside a 30 s budget.
    exp = tmp_path / "exp"
    t0 = time.perf_counter()
    assert run_cli("synth", "--out-dir", exp, "--seed", 42).code == 0
    assert run_cli(
        "value", "--inline", "--train", exp / "x_train.embx",
        "--gen", exp / "x_hat.embx", "--output", exp / "values.csv",
    ).code == 0
    cmp_run = run_cli(
        "compare", "--values", exp / "values.csv",
        "--partition", exp / "partition.json",
    )
    elapsed = time.perf_counter() - t0
    assert cmp_run.code == 0
    rows = (exp / "values.csv").read_text().strip().split("\n")[1:]
    vals = np.array([float(r.split(",")[1]) for r in rows])
    ratio_42 = vals[:500].mean() / vals[500:].mean()
    p_42 = float(re.search(r" p=([^\s]+)", cmp_run.stdout).group(1))
    rejected = "REJECT H0 at alpha=0.01" in cmp_run.stdout

    wins = 0
    for seed in range(1, 21):
        train, x_hat = two_split_arrays(seed, n=500, m=500)
        res = aggregate_values(batch_match(train, x_hat, k=10), n=1000)
        ratio = res.values[:500].mean() / res.values[500:].mean()
        p = welch_t_test(res.values[:500], res.values[500:]).p_one_sided
        wins += ratio >= 5.0 and p < 0.01

    check(
        "end-to-end split separation",
        ratio_42 >= 5.0 and p_42 < 0.01 and rejected and elapsed < 30.0 and wins >= 19,
        f"seed 42 CLI run: ratio={ratio_42:.1f} p={p_42:.3g} wall={elapsed:.2f}s; "
        f"seeds 1-20: {wins}/20 with ratio>=5 and p<0.01 (need >=19)",
    )


# ------------------------------------------------------------ mass conservation


def test_value_mass_conservation():
    # Every run: sum(values) == m within 1e-6*m, each credit row sums to 1
    # within 1e-9.  Swept over shapes, k, and temperature, plus the
    # default-size experiment instance.
    rng = np.random.default_rng(20250823)
    runs = 0
    worst_mass = 0.0
    worst_row = 0.0
    cases = [(rng, None)] * 30
    for _ in cases:
        n = int(rng.integers(1, 201))
        m = int(rng.integers(1, 301))
        k = int(rng.integers(1, min(n, 8) + 1))
        d = int(rng.integers(1, 17))
        tau = float(rng.choice([0.25, 1.0, 4.0]))
        train = EmbeddingMatrix(rng.standard_normal((n, d)))
        gen = EmbeddingMatrix(rng.standard_normal((m, d)))
        tables = batch_match(train, gen, k=k)
        res = aggregate_values(tables, n=n, temperature=tau)
        worst_mass = max(worst_mass, abs(res.values.sum() - m) / m)
        for j in range(m):
            s = discount_scores(tables.distances[j], temperature=tau)
            worst_row = max(worst_row, abs(s.sum() - 1.0))
        runs += 1

    train, x_hat = two_split_arrays(42, n=500, m=500)
    res = aggregate_values(batch_match(train, x_hat, k=10), n=1000)
    worst_mass = max(worst_mass, abs(res.values.sum() - 500) / 500)
    runs += 1

    check(
        "value mass conservation",
        worst_mass <= 1e-6 and worst_row <= 1e-9,
        f"{runs} runs: max |sum(values)-m|/m = {worst_mass:.2e} (tol 1e-6), "
        f"max |row sum - 1| = {worst_row:.2e} (tol 1e-9)",
    )


# --------------------------------------------- credit scores vs slow arithmetic


def test_score_oracle_and_shift_invariance():
    got = discount_scores([1.0, 2.0])
    oracle = np.array([float(x) for x in reference.mp_softmax([1.0, 2.0])])
    err_oracle = float(np.abs(got - oracle).max())
    err_stated = float(np.abs(got - np.array([0.731059, 0.268941])).max())

    rng = np.random.default_rng(411)
    worst_shift = 0.0
    for _ in range(1000):
        d = rng.uniform(0.0, 50.0, size=int(rng.integers(1, 13)))
        c = float(rng.uniform(0.0, 500.0))
        worst_shift = max(
            worst_shift,
            float(np.abs(discount_scores(d) - discount_scores(d + c)).max()),
        )

    check(
        "credit score oracle and shift invariance",
        err_oracle <= 1e-6 and err_stated <= 1e-6 and worst_shift <= 1e-9,
        f"[1,2] vs 50-digit oracle: {err_oracle:.2e} (tol 1e-6); "
        f"shift deviation over 1000 rows: {worst_shift:.2e} (tol 1e-9)",
    )


# ----------------------------------------------- pipeline vs naive loop rewrite


def test_pipeline_matches_naive_reimplementation():
    rng = np.random.default_rng(8128)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 33))
        m = int(rng.integers(1, 33))
        d = int(rng.integers(1, 9))
        k = int(rng.integers(1, min(n, 4) + 1))
        # the matrix type stores float32; hand the oracle the same values
        train = rng.standard_normal((n, d)).astype(np.float32)
        gen = rng.standard_normal((m, d)).astype(np.float32)
        mine = aggregate_values(
            batch_match(EmbeddingMatrix(train), EmbeddingMatrix(gen), k=k), n=n
        ).values
        naive = reference.pipeline_values(train.tolist(), gen.tolist(), k)
        worst = max(worst, float(np.abs(mine - np.array(naive)).max()))
    check(
        "pipeline equals naive reimplementation",
        worst <= 1e-9,
        f"100 instances (n,m<=32, d<=8, k<=4): max |value diff| = {worst:.2e} (tol 1e-9)",
    )


# ------------------------------------- compressed search on a lossless codebook


def test_lossless_codebook_matches_exact_search():
    # One subspace with as many centroids as points drives quantization
    # error to zero, so table lookups must reproduce the exact scan.
    rng = np.random.default_rng(6174)
    instances = 0
    index_mismatches = 0
    worst_rel = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 33))
        d = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(n, 10) + 1))
        train = EmbeddingMatrix(rng.standard_normal((n, d)))
        cfg = PQConfig(
            num_subspaces=1, codebook_size=n, kmeans_iters=25,
            seed=int(rng.integers(1 << 30)),
        )
        codebook = train_codebooks(train, cfg)
        assert quantization_error(train, codebook) == 0.0
        codes = encode(train, codebook)
        for _ in range(int(rng.integers(1, 6))):
            q = EmbeddingMatrix(rng.standard_normal((1, d)))
            ex = batch_match(train, q, k)
            ad = batch_match((codebook, codes), q, k)
            if not np.array_equal(ad.indices, ex.indices):
                index_mismatches += 1
            rel = np.abs(ad.distances - ex.distances) / np.maximum(ex.distances, 1e-30)
            worst_rel = max(worst_rel, float(rel.max()))
        instances += 1
    check(
        "lossless codebook equals exact search",
        index_mismatches == 0 and worst_rel <= 1e-5,
        f"{instances} instances: {index_mismatches} index-table mismatches "
        f"(need 0), max relative distance error = {worst_rel:.2e} (tol 1e-5)",
    )


# ----------------------------------------------------- compressed recall floor


def test_compressed_recall_floor():
    # 10,000-point corpus, dim 64, 4-component mixture with unit variance
    # inside each component; 32 subspaces of 256 centroids (256-bit codes,
    # 4 bits per dimension), 25 k-means iterations, seed 7.  Queries are
    # the pipeline's own generated samples.  Required: recall@10 >= 0.7.
    #
    # The budget is 256 bits, not 64, because no 64-bit code can reach the
    # floor on this corpus.  In the median, a query's true neighbours 2 to
    # 10 lie between squared distances 8.59 and 9.25.  At 1 bit per
    # dimension the rate-distortion bound leaves a squared error of at
    # least 16 per point, and Gaussian noise of that size alone gives
    # recall@10 = 0.45.  genval's PQ at 8 / 16 / 32 subspaces measures
    # recall@10 = 0.29 / 0.50 / 0.78.
    spec = ExperimentSpec(dim=64, n_per_split=10_000, m_generated=500, seed=7)
    train = sample_mixture(spec, 10_000, stream=0)
    queries = simulate_generated(train, spec)
    cfg = PQConfig(num_subspaces=32, codebook_size=256, kmeans_iters=25, seed=7)
    codebook = train_codebooks(train, cfg)
    codes = encode(train, codebook)
    qe = quantization_error(train, codebook)
    exact = batch_match(train, queries, k=10)
    approx = batch_match((codebook, codes), queries, k=10)
    recall = recall_at_k(approx, exact)
    bits = cfg.num_subspaces * int(np.log2(cfg.codebook_size))
    check(
        "compressed search recall floor",
        recall >= 0.7,
        f"measured recall@10 = {recall:.4f} (required >= 0.7), "
        f"quantization error = {qe:.2f} per point; code budget "
        f"{cfg.num_subspaces} subspaces x {cfg.codebook_size} centroids "
        f"= {bits} bits per row",
    )


# --------------------------------------------------------- mean-comparison test


def test_welch_test_correctness():
    a = [1.0, 2.0, 3.0, 4.0]
    b = [0.0, 1.0, 2.0, 3.0]
    res = welch_t_test(a, b)
    _, _, p_oracle = reference.welch(a, b)
    hand_ok = (
        abs(res.t_statistic - 1.0954) <= 1e-3
        and res.degrees_of_freedom == 6.0
        and abs(res.p_one_sided - float(p_oracle)) <= 1e-3
    )

    rng = np.random.default_rng(1729)
    x = rng.standard_normal(8)
    ident = welch_t_test(x, x)
    ident_ok = ident.t_statistic == 0.0 and ident.p_one_sided == 0.5

    worst = 0.0
    for _ in range(500):
        na, nb = int(rng.integers(2, 31)), int(rng.integers(2, 31))
        a = rng.normal(rng.uniform(-3, 3), rng.uniform(0.5, 3), na)
        b = rng.normal(rng.uniform(-3, 3), rng.uniform(0.5, 3), nb)
        fwd, rev = welch_t_test(a, b), welch_t_test(b, a)
        worst = max(
            worst,
            abs(fwd.t_statistic + rev.t_statistic),
            abs(fwd.p_one_sided + rev.p_one_sided - 1.0),
        )
        alpha, beta = float(rng.uniform(0.5, 2.0)), float(rng.uniform(-10, 10))
        aff = welch_t_test(alpha * a + beta, alpha * b + beta)
        worst = max(
            worst,
            abs(aff.t_statistic - fwd.t_statistic),
            abs(aff.p_one_sided - fwd.p_one_sided),
        )

    check(
        "mean-comparison test correctness",
        hand_ok and ident_ok and worst <= 1e-9,
        f"hand case t={res.t_statistic:.5f} df={res.degrees_of_freedom} "
        f"p={res.p_one_sided:.5f} (oracle {float(p_oracle):.5f}); identity "
        f"t=0 p=0.5: {ident_ok}; 500 pairs antisymmetry+affine max dev = "
        f"{worst:.2e} (tol 1e-9)",
    )


# -------------------------------------------- transport oracle, removal effect


def _oracle_cost(src, tgt, assignment, p):
    # same arithmetic path as reference.min_cost_perm, applied to a given
    # pairing, so optimality can be compared bit-for-bit
    total = 0.0
    for i, j in enumerate(assignment):
        total += np.sqrt(reference.sq_dist(src[i], tgt[j])) ** p
    return (total / len(src)) ** (1.0 / p)


def _w1_equalized(train, x_hat, removed, seed, draws=8):
    """Transport cost from the surviving training rows to the generated set,
    thinned to equal counts by a seeded priority order shared across variants
    and averaged over `draws` orders to cancel thinning noise."""
    keep = np.setdiff1d(np.arange(train.count), removed)
    m = x_hat.count
    total = 0.0
    for d in range(draws):
        rng = Generator(Philox(SeedSequence([seed, 3, d])))
        priority = rng.permutation(train.count)
        order = np.argsort(priority[keep], kind="stable")
        pick = np.sort(keep[order[:m]])
        total += exact_wasserstein(
            EmbeddingMatrix(train.data[pick]), x_hat, p=1
        ).cost
    return total / draws


def test_transport_oracle_and_removal_effect():
    rng = np.random.default_rng(3435)
    exact_hits = 0
    worst_cost = 0.0
    for trial in range(200):
        n = int(rng.integers(1, 8))
        d = int(rng.integers(1, 5))
        p = 1 + trial % 2
        src = rng.uniform(-3, 3, size=(n, d)).astype(np.float32)
        tgt = rng.uniform(-3, 3, size=(n, d)).astype(np.float32)
        got = exact_wasserstein(EmbeddingMatrix(src), EmbeddingMatrix(tgt), p=p)
        brute_cost, _ = reference.min_cost_perm(src.tolist(), tgt.tolist(), p=p)
        # the returned pairing must achieve the enumerated optimum exactly
        # when re-costed with the oracle's own arithmetic
        if _oracle_cost(src.tolist(), tgt.tolist(), got.assignment, p) == brute_cost:
            exact_hits += 1
        denom = max(abs(brute_cost), 1e-30)
        worst_cost = max(worst_cost, abs(got.cost - brute_cost) / denom)

    axiom_dev = 0.0
    for _ in range(40):
        n = int(rng.integers(2, 8))
        A, B, C = (EmbeddingMatrix(rng.uniform(-2, 2, size=(n, 3))) for _ in range(3))
        for p in (1, 2):
            ab = exact_wasserstein(A, B, p=p).cost
            ba = exact_wasserstein(B, A, p=p).cost
            aa = exact_wasserstein(A, A, p=p).cost
            ac = exact_wasserstein(A, C, p=p).cost
            cb = exact_wasserstein(C, B, p=p).cost
            axiom_dev = max(axiom_dev, abs(ab - ba), aa, ab - (ac + cb))

    # Removing the most valuable tenth of the corpus must hurt the match to
    # the generated set more than removing the least valuable tenth.
    removal_wins = 0
    for seed in range(1, 21):
        train, x_hat = two_split_arrays(seed, n=64, m=64)
        res = aggregate_values(batch_match(train, x_hat, k=10), n=128)
        t = round(0.1 * 128)
        w_top = _w1_equalized(train, x_hat, res.ranking[:t], seed)
        w_bot = _w1_equalized(train, x_hat, res.ranking[-t:], seed)
        removal_wins += w_top > w_bot

    check(
        "transport oracle and removal effect",
        exact_hits == 200 and worst_cost <= 1e-12 and axiom_dev <= 1e-9
        and removal_wins >= 16,
        f"200 brute-force instances: {exact_hits} exact-optimal pairings, "
        f"max relative cost gap = {worst_cost:.2e}; metric-axiom deviation = "
        f"{axiom_dev:.2e} (tol 1e-9); top-vs-bottom removal wins {removal_wins}/20 "
        f"(need >=16)",
    )


# ------------------------------------------------------------- CLI determinism


def _run_pipeline(root):
    """Full CLI pass in a fresh directory; returns every byte it produced."""
    exp = root / "exp"
    idx = root / "index.gmvi"
    captured = {}
    steps = [
        ("synth", "--out-dir", exp, "--dim", 16, "--n-per-split", 60,
         "--m", 60, "--seed", 9),
        ("build-index", "--train", exp / "x_train.embx", "--output", idx,
         "--num-subspaces", 4, "--codebook-size", 16, "--kmeans-iters", 10),
        ("match", "--train", exp / "x_train.embx", "--gen", exp / "x_hat.embx",
         "--k", 5, "--output", root / "exact.jsonl"),
        ("match", "--mode", "pq", "--index", idx, "--gen", exp / "x_hat.embx",
         "--k", 5, "--output", root / "pq.jsonl"),
        ("value", "--inline", "--train", exp / "x_train.embx",
         "--gen", exp / "x_hat.embx", "--output", root / "values.csv"),
        ("compare", "--values", root / "values.csv",
         "--partition", exp / "partition.json"),
        ("wasserstein", "--source", exp / "x_v1.embx",
         "--target", exp / "x_hat.embx", "--p", 1),
    ]
    for step in steps:
        r = run_cli(*step)
        assert r.code == 0, r.stderr
        captured[step[0] + ":stdout"] = r.stdout.encode()
    for f in ("exp/x_v1.embx", "exp/x_v2.embx", "exp/x_train.embx",
              "exp/x_hat.embx", "exp/partition.json", "exp/experiment.json",
              "index.gmvi", "exact.jsonl", "pq.jsonl", "values.csv"):
        captured[f] = (root / f).read_bytes()
    return captured


def test_cli_determinism(tmp_path):
    first = _run_pipeline(tmp_path / "a")
    second = _run_pipeline(tmp_path / "b")
    assert first.keys() == second.keys()
    stable_files = sum(first[k] == second[k] for k in first)

    exp = tmp_path / "a" / "exp"
    thread_pairs = 0
    for argv in (
        ("match", "--train", exp / "x_train.embx", "--gen", exp / "x_hat.embx",
         "--k", 7),
        ("value", "--inline", "--train", exp / "x_train.embx",
         "--gen", exp / "x_hat.embx", "--k", 7),
    ):
        one = run_cli(*argv, "--threads", 1)
        eight = run_cli(*argv, "--threads", 8)
        assert one.code == eight.code == 0
        thread_pairs += one.stdout == eight.stdout

    check(
        "CLI pipeline determinism",
        stable_files == len(first) and thread_pairs == 2,
        f"two fresh-directory runs: {stable_files}/{len(first)} artifacts "
        f"byte-identical; threads 1 vs 8: {thread_pairs}/2 outputs identical",
    )
