"""Command-line pipeline: synth, build-index, match, value, compare,
eval-recall, wasserstein.

Every option is declared once, in ``OPTIONS``: its name, type, default,
choices, help and the subcommands that take it. The flag is the name
with dashes (``noise_sigma`` -> ``--noise-sigma``); a JSON config file
given with ``--config`` uses the name itself as a flat key. A config
value must have the option's JSON type (integer, number, string or
true/false) and pass its choices, as a flag value must. Explicit flags
win over the config file, which wins over built-in defaults. A config
key that names no option exits 2; keys of other subcommands are ignored,
so one file can drive a whole pipeline. Exit codes: 0 success, 2
usage/config/data error or an input too large for memory, 3 violated
internal invariant. Data goes to stdout (or ``--output``), diagnostics
to stderr.
"""
from __future__ import annotations

import argparse
import json
import sys
from array import array
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import embeddings, pq, search, stats, synth, valuation
from .errors import ConfigError, FormatError, GenvalError, InternalError

VALUE_FORMAT = "%.9g"


@dataclass(frozen=True)
class Option:
    name: str  # config key; the flag is --name with dashes
    type: type  # bool, int, float or str
    default: object
    commands: tuple[str, ...]
    help: str
    choices: tuple = ()


_EMBEDDING_INPUTS = ("build-index", "match", "value", "eval-recall", "wasserstein")
_MATCHING = ("match", "value", "eval-recall")

OPTIONS = (
    Option("seed", int, 42, ("synth", "build-index"), "random seed"),
    Option("format", str, "binary", _EMBEDDING_INPUTS, "embedding file format",
           choices=("binary", "csv")),
    Option("header", bool, False, _EMBEDDING_INPUTS, "CSV inputs carry a header row to skip"),
    Option("out_dir", str, None, ("synth",), "directory to write the experiment into"),
    Option("dim", int, 64, ("synth",), "embedding dimension"),
    Option("n_per_split", int, 500, ("synth",), "training rows per split"),
    Option("components", int, 4, ("synth",), "mixture components"),
    Option("spread", float, 8.0, ("synth",), "spread of the component means"),
    Option("noise_sigma", float, 0.3, ("synth",), "noise added to memorized rows"),
    Option("m", int, 500, ("synth",), "generated rows"),
    Option("matches", str, None, ("value",), "JSON-lines match file, '-' for stdin"),
    Option("inline", bool, False, ("value",), "run matching here instead of reading --matches"),
    Option("n", int, None, ("value",), "training count (when reading --matches)"),
    Option("mode", str, "exact", ("match", "value"), "exact scan or PQ index",
           choices=("exact", "pq")),
    Option("train", str, None, ("build-index", *_MATCHING), "training embeddings"),
    Option("index", str, None, _MATCHING, "GMVI index file (pq mode)"),
    Option("gen", str, None, _MATCHING, "generated embeddings"),
    Option("k", int, 10, _MATCHING, "matches per generated row"),
    Option("threads", int, 1, _MATCHING, "worker threads over generated rows"),
    Option("num_subspaces", int, 8, ("build-index",), "PQ subspaces"),
    Option("codebook_size", int, 256, ("build-index",), "centroids per subspace"),
    Option("kmeans_iters", int, 25, ("build-index",), "Lloyd iterations"),
    Option("temperature", float, 1.0, ("value",), "softmax sharpness"),
    Option("output", str, None, ("build-index", "match", "value"), "output file ('-' or unset: stdout)"),
    Option("summary", str, None, ("value",), "write a JSON run summary here"),
    Option("values_a", str, None, ("compare",), "value CSV of group a"),
    Option("values_b", str, None, ("compare",), "value CSV of group b"),
    Option("values", str, None, ("compare",), "value CSV split by --partition"),
    Option("partition", str, None, ("compare",), "partition JSON naming the groups"),
    Option("group_a", str, "v1", ("compare",), "partition group tested as larger"),
    Option("group_b", str, "v2", ("compare",), "partition group tested as smaller"),
    Option("alpha", float, 0.01, ("compare",), "significance level"),
    Option("source", str, None, ("wasserstein",), "source embeddings"),
    Option("target", str, None, ("wasserstein",), "target embeddings"),
    Option("p", int, 2, ("wasserstein",), "cost exponent", choices=(1, 2)),
    Option("assignment", str, None, ("wasserstein",), "write the optimal pairing here as JSON"),
)


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


# a decoded JSON value is exactly one of these Python types, and a bool
# is not taken for an int
_JSON_TYPES = {
    bool: ({bool}, "true or false"),
    int: ({int}, "an integer"),
    float: ({int, float}, "a number"),
    str: ({str}, "a string"),
}


def _config_value(opt: Option, value):
    """Check a config value against its option; return it as the option's type."""
    accepted, expected = _JSON_TYPES[opt.type]
    if type(value) not in accepted:
        raise ConfigError(
            f"config key {opt.name!r}: expected {expected}, got {json.dumps(value)}"
        )
    if opt.choices and value not in opt.choices:
        raise ConfigError(
            f"config key {opt.name!r}: invalid choice {json.dumps(value)} "
            f"(choose from {', '.join(map(str, opt.choices))})"
        )
    return opt.type(value)


def _load_config(path) -> dict:
    raw = embeddings.read_json(path, "config file")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config file must hold a flat JSON object")
    return raw


def _resolve_options(args) -> None:
    """Set every option of the subcommand on ``args``: flag > config > default."""
    config = _load_config(args.config) if args.config else {}
    names = {opt.name for opt in OPTIONS}
    for key in config:
        if key not in names:
            raise ConfigError(f"unknown config key {key!r}")
    for opt in OPTIONS:
        if args.command not in opt.commands:
            continue
        value = getattr(args, opt.name)
        if opt.name in config:
            from_config = _config_value(opt, config[opt.name])
            if value is None:
                value = from_config
        setattr(args, opt.name, opt.default if value is None else value)


def _required(args, name) -> Path:
    value = getattr(args, name)
    if value is None:
        raise ConfigError(f"missing required input: {_flag(name)}")
    return Path(value)


def _load_matrix(args, name):
    return embeddings.load_embeddings(_required(args, name), format=args.format, skip_header=args.header)


def _training_rows(args):
    """The training rows of an exact scan, as a context manager: an EMBX
    file left in the file for the scan to read a tile at a time
    (``embeddings.open_rows``), a CSV file parsed whole."""
    if args.format == "binary":
        return embeddings.open_rows(_required(args, "train"))
    return nullcontext(_load_matrix(args, "train"))


def _out_stream(path):
    """stdout for ``None`` or ``-``, else ``path`` replaced whole or not at all."""
    if path is None or path == "-":
        return nullcontext(sys.stdout)
    return embeddings.replacing(path, text=True)


def cmd_synth(args) -> int:
    spec = synth.ExperimentSpec(
        dim=args.dim,
        n_per_split=args.n_per_split,
        mixture_components=args.components,
        component_spread=args.spread,
        noise_sigma=args.noise_sigma,
        m_generated=args.m,
        seed=args.seed,
    )
    files = synth.make_ra2_experiment(spec, _required(args, "out_dir"))
    print(files["manifest"].read_text(encoding="utf-8"), end="")
    return 0


def cmd_build_index(args) -> int:
    train = _load_matrix(args, "train")
    cfg = pq.PQConfig(
        num_subspaces=args.num_subspaces,
        codebook_size=args.codebook_size,
        kmeans_iters=args.kmeans_iters,
        seed=args.seed,
    )
    codebook = pq.train_codebooks(train, cfg)
    codes = pq.encode(train, codebook)
    pq.save_index(codebook, codes, _required(args, "output"))
    qe = pq.quantization_error(train, codebook, codes)
    print("quantization_error=" + VALUE_FORMAT % qe)
    return 0


def _match_tables(args) -> tuple[search.MatchTables, int]:
    """Run matching per the mode flags; returns (tables, training count)."""
    gen = _load_matrix(args, "gen")
    if args.mode == "exact":
        with _training_rows(args) as train:
            return search.batch_match(train, gen, args.k, threads=args.threads), train.count
    codebook, codes = pq.load_index(_required(args, "index"))
    return search.batch_match((codebook, codes), gen, args.k, threads=args.threads), codes.count


def cmd_match(args) -> int:
    tables, _ = _match_tables(args)
    with _out_stream(args.output) as fh:
        search.write_match_jsonl(tables, fh)
    return 0


def cmd_value(args) -> int:
    if args.inline:
        tables, n = _match_tables(args)
        # the distances a piped run reads, so that inline and piped
        # execution agree byte for byte
        tables = search.as_written(tables)
    else:
        path = args.matches or "-"
        with embeddings.open_text(path) as fh:
            tables = search.read_match_jsonl(fh, "match stream" if path == "-" else f"{path}: match stream")
        if args.n is not None:
            n = args.n
        elif args.train is not None:
            n = _load_matrix(args, "train").count
        else:
            raise ConfigError("need --n or --train to size the value vector")
    result = valuation.aggregate_values(tables, n, args.temperature)
    rank = np.empty(result.n, dtype=np.int64)
    rank[result.ranking] = np.arange(1, result.n + 1)
    # the summary is written inside the values' block, so a summary that
    # cannot be written leaves no values file either
    with _out_stream(args.output) as fh:
        fields = [None] * (3 * result.n)
        fields[0::3], fields[1::3], fields[2::3] = range(result.n), result.values.tolist(), rank.tolist()
        fh.write("train_index,value,rank\n" + ("%d," + VALUE_FORMAT + ",%d\n") * result.n % tuple(fields))
        if args.summary is not None:
            summary = {
                "n": result.n,
                "m": result.m,
                "k": result.k,
                "temperature": args.temperature,
                "sum_values": float(result.values.sum()),
                "top_indices": [int(i) for i in result.ranking[:10]],
            }
            with embeddings.replacing(args.summary, text=True) as out:
                out.write(json.dumps(summary, sort_keys=True) + "\n")
    return 0


def _read_value_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """The train_index (int64) and value (float64) columns of a value CSV,
    in file order; an error names the first line at fault."""
    path = Path(path)
    index, value = array("q"), array("d")
    header, bad = False, None  # bad: the error of the first line that does not parse
    with embeddings.open_text(path) as fh:
        for lineno, line in enumerate(embeddings.read_lines(fh, f"{path}:"), start=1):
            if lineno == 1 and line.startswith("train_index"):
                header = True
                continue
            fields = line.split(",")
            if len(fields) < 2:
                bad = f"line {lineno}: expected train_index,value[,rank]"
                break
            try:
                index.append(int(fields[0]))
                value.append(float(fields[1]))
            except ValueError:
                bad = f"line {lineno}: unparseable field"
                break
            except OverflowError:
                bad = f"line {lineno}: train_index outside the 64-bit range"
                break
    # a line that fails on its value leaves its index behind
    index = np.frombuffer(index, dtype=np.int64)[: len(value)]
    # a stable sort puts each train_index's rows in file order, so every
    # row after the first of its run repeats an earlier line's index
    order = np.argsort(index, kind="stable")
    ordered = index[order]
    repeats = order[1:][ordered[1:] == ordered[:-1]]
    if repeats.size:
        row = int(repeats.min())
        bad = f"line {row + 1 + header}: duplicate train_index {index[row]}"
    elif bad is None and not index.size:
        bad = "no value rows"
    if bad is not None:
        raise FormatError(f"{path}: {bad}")
    return index, np.frombuffer(value, dtype=np.float64)


def _pick(index: np.ndarray, value: np.ndarray, name: str, wanted: list) -> np.ndarray:
    """The values of the rows whose train_index ``wanted`` lists, in its
    order; ``index`` is sorted and ``value`` follows it."""
    try:
        want, fits = np.array(wanted, dtype=np.int64), np.ones(len(wanted), dtype=bool)
    except OverflowError:
        # no train_index lies outside int64; 0 stands in for such an entry
        fits = np.array([-(1 << 63) <= i < (1 << 63) for i in wanted], dtype=bool)
        want = np.array([i if ok else 0 for i, ok in zip(wanted, fits)], dtype=np.int64)
    at = np.minimum(np.searchsorted(index, want), index.size - 1)
    missing = ~fits | (index[at] != want)
    if missing.any():
        raise ConfigError(
            f"group {name!r} references train_index {wanted[int(np.argmax(missing))]} "
            "missing from the value CSV"
        )
    return value[at]


def _compare_groups(args) -> tuple[np.ndarray, np.ndarray, str, str]:
    if args.values_a is not None and args.values_b is not None:
        a = _read_value_csv(args.values_a)[1]
        b = _read_value_csv(args.values_b)[1]
        return a, b, "a", "b"
    if args.values is not None and args.partition is not None:
        index, value = _read_value_csv(args.values)
        order = np.argsort(index)
        index, value = index[order], value[order]
        groups = embeddings.read_json(args.partition, "partition file")
        if not isinstance(groups, dict):
            raise ConfigError(f"{args.partition}: partition file must hold a JSON object of groups")
        name_a, name_b = args.group_a, args.group_b
        for name in (name_a, name_b):
            if name not in groups:
                raise ConfigError(f"partition file has no group {name!r}")
            # a type test, not isinstance: true/false are not row indices
            if type(groups[name]) is not list or not set(map(type, groups[name])) <= {int}:
                raise ConfigError(
                    f"partition group {name!r} must be a list of JSON integers"
                )
        a, b = (_pick(index, value, name, groups[name]) for name in (name_a, name_b))
        return a, b, name_a, name_b
    raise ConfigError(
        "compare needs either --values-a/--values-b or --values/--partition"
    )


def cmd_compare(args) -> int:
    a, b, name_a, name_b = _compare_groups(args)
    alpha = args.alpha
    if not 0 < alpha < 1:
        raise ConfigError("alpha must lie in (0, 1)")
    res = stats.welch_t_test(a, b)
    for name, mean, var, count in (
        (name_a, res.mean_a, res.var_a, res.n_a),
        (name_b, res.mean_b, res.var_b, res.n_b),
    ):
        print(f"group {name}: n={count} mean={mean:.9g} variance={var:.9g}")
    print(
        f"t={res.t_statistic:.9g} df={res.degrees_of_freedom:.9g} "
        f"p={res.p_one_sided:.9g}"
    )
    if res.p_one_sided < alpha:
        print(f"REJECT H0 at alpha={alpha:g}")
    else:
        print(f"FAIL TO REJECT at alpha={alpha:g}")
    return 0


def cmd_eval_recall(args) -> int:
    # the scans run at max(1, 10, k), which hides a k below 1 from batch_match
    if args.k < 1:
        raise ConfigError("k must be >= 1")
    with _training_rows(args) as train:
        gen = _load_matrix(args, "gen")
        codebook, codes = pq.load_index(_required(args, "index"))
        if (codes.count, codebook.dim) != (train.count, train.dim):
            raise ConfigError(
                f"shape mismatch: index {(codes.count, codebook.dim)}, --train {(train.count, train.dim)}")
        # rows are sorted with ties to the lower index, so the top k of a
        # row is a prefix of its top max(ks): one scan of each kind serves
        # every k
        ks = sorted({1, 10, args.k})
        exact = search.batch_match(train, gen, ks[-1], threads=args.threads)
    approx = search.batch_match((codebook, codes), gen, ks[-1], threads=args.threads)
    for k in ks:
        print(f"recall@{k}={search.recall_at_k(_prefix(approx, k), _prefix(exact, k)):.6f}")
    return 0


def _prefix(tables: search.MatchTables, k: int) -> search.MatchTables:
    return search.MatchTables(tables.distances[:, :k], tables.indices[:, :k])


def cmd_wasserstein(args) -> int:
    source = _load_matrix(args, "source")
    target = _load_matrix(args, "target")
    res = stats.exact_wasserstein(source, target, p=args.p)
    if args.assignment is not None:
        with embeddings.replacing(args.assignment, text=True) as fh:
            fh.write(json.dumps({"p": args.p, "assignment": [int(j) for j in res.assignment]}) + "\n")
    print("cost=" + VALUE_FORMAT % res.cost)
    return 0


COMMANDS = {
    "synth": (cmd_synth, "write a seeded two-split experiment"),
    "build-index": (cmd_build_index, "train codebooks and write a GMVI index"),
    "match": (cmd_match, "emit top-k match tables as JSON lines"),
    "value": (cmd_value, "aggregate match tables into per-point values"),
    "compare": (cmd_compare, "Welch-test two value groups"),
    "eval-recall": (cmd_eval_recall, "ADC recall against the exact scan"),
    "wasserstein": (cmd_wasserstein, "exact transport cost between two sets"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genval",
        description="Value training data against a fixed generated set by similarity matching.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config file with flat flag-named keys")
        for opt in OPTIONS:
            if command not in opt.commands:
                continue
            # default None marks "not given", so config and default can fill in
            if opt.type is bool:
                p.add_argument(_flag(opt.name), dest=opt.name, action="store_true",
                               default=None, help=opt.help)
            else:
                p.add_argument(_flag(opt.name), dest=opt.name, type=opt.type,
                               choices=opt.choices or None, help=opt.help)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
        _resolve_options(args)
        return args.func(args)
    except (GenvalError, OSError) as exc:
        print(f"genval: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"genval: error: out of memory: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"genval: internal error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
