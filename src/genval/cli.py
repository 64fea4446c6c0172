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
import io
import json
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import embeddings, pq, search, stats, synth, valuation
from .errors import ConfigError, FormatError, GenvalError, InternalError

VALUE_FORMAT = "{:.9g}"


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
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a flat JSON object")
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
    path = _required(args, name)
    if not path.exists():
        raise ConfigError(f"{_flag(name)}: no such file: {path}")
    return embeddings.load_embeddings(path, format=args.format, skip_header=args.header)


def _out_stream(path):
    if path is None or path == "-":
        return nullcontext(sys.stdout)
    return open(path, "w", newline="")


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
    print(files["manifest"].read_text(), end="")
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
    print("quantization_error=" + VALUE_FORMAT.format(qe))
    return 0


def _match_tables(args) -> tuple[search.MatchTables, int]:
    """Run matching per the mode flags; returns (tables, training count)."""
    gen = _load_matrix(args, "gen")
    if args.mode == "exact":
        train = _load_matrix(args, "train")
        return search.batch_match(train, gen, args.k, threads=args.threads), train.count
    if args.index is None:
        raise ConfigError("pq mode needs --index pointing at a GMVI file")
    codebook, codes = pq.load_index(args.index)
    return search.batch_match((codebook, codes), gen, args.k, threads=args.threads), codes.count


def cmd_match(args) -> int:
    tables, _ = _match_tables(args)
    with _out_stream(args.output) as fh:
        search.write_match_jsonl(tables, fh)
    return 0


def _value_rows(result: valuation.ValuationResult):
    rank_of = np.empty(result.n, dtype=np.int64)
    rank_of[result.ranking] = np.arange(1, result.n + 1)
    for i in range(result.n):
        yield i, result.values[i], int(rank_of[i])


def cmd_value(args) -> int:
    if args.inline:
        tables, n = _match_tables(args)
        # route the tables through the JSON-lines text so that inline and
        # piped execution agree byte for byte
        buf = io.StringIO()
        search.write_match_jsonl(tables, buf)
        buf.seek(0)
        tables = search.read_match_jsonl(buf)
    else:
        if args.matches is None or args.matches == "-":
            tables = search.read_match_jsonl(sys.stdin)
        else:
            with open(args.matches) as fh:
                tables = search.read_match_jsonl(fh)
        if args.n is not None:
            n = args.n
        elif args.train is not None:
            n = _load_matrix(args, "train").count
        else:
            raise ConfigError("need --n or --train to size the value vector")
    result = valuation.aggregate_values(tables, n, args.temperature)
    with _out_stream(args.output) as fh:
        fh.write("train_index,value,rank\n")
        for i, value, rank in _value_rows(result):
            fh.write(f"{i},{VALUE_FORMAT.format(value)},{rank}\n")
    if args.summary is not None:
        summary = {
            "n": result.n,
            "m": result.m,
            "k": result.k,
            "temperature": args.temperature,
            "sum_values": float(result.values.sum()),
            "top_indices": [int(i) for i in result.ranking[:10]],
        }
        Path(args.summary).write_text(json.dumps(summary, sort_keys=True) + "\n")
    return 0


def _read_value_csv(path) -> dict[int, float]:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"no such file: {path}")
    out: dict[int, float] = {}
    lines = path.read_text().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    for lineno, line in enumerate(lines, start=1):
        if lineno == 1 and line.startswith("train_index"):
            continue
        fields = line.split(",")
        if len(fields) < 2:
            raise FormatError(f"{path}: line {lineno}: expected train_index,value[,rank]")
        try:
            idx = int(fields[0])
            val = float(fields[1])
        except ValueError:
            raise FormatError(f"{path}: line {lineno}: unparseable field") from None
        if idx in out:
            raise FormatError(f"{path}: line {lineno}: duplicate train_index {idx}")
        out[idx] = val
    if not out:
        raise FormatError(f"{path}: no value rows")
    return out


def _compare_groups(args) -> tuple[list[float], list[float], str, str]:
    if args.values_a is not None and args.values_b is not None:
        a = list(_read_value_csv(args.values_a).values())
        b = list(_read_value_csv(args.values_b).values())
        return a, b, "a", "b"
    if args.values is not None and args.partition is not None:
        table = _read_value_csv(args.values)
        try:
            groups = json.loads(Path(args.partition).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read partition file: {exc}") from None
        if not isinstance(groups, dict):
            raise ConfigError("partition file must hold a JSON object of groups")
        name_a, name_b = args.group_a, args.group_b
        for name in (name_a, name_b):
            if name not in groups:
                raise ConfigError(f"partition file has no group {name!r}")
            # a type test, not isinstance: true/false are not row indices
            if type(groups[name]) is not list or not set(map(type, groups[name])) <= {int}:
                raise ConfigError(
                    f"partition group {name!r} must be a list of JSON integers"
                )

        def pick(name):
            vals = []
            for idx in groups[name]:
                if idx not in table:
                    raise ConfigError(
                        f"group {name!r} references train_index {idx} "
                        "missing from the value CSV"
                    )
                vals.append(table[idx])
            return vals

        return pick(name_a), pick(name_b), name_a, name_b
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
    if args.k < 1:
        raise ConfigError("k must be >= 1")
    train = _load_matrix(args, "train")
    gen = _load_matrix(args, "gen")
    if args.index is None:
        raise ConfigError("eval-recall needs --index pointing at a GMVI file")
    codebook, codes = pq.load_index(args.index)
    if (codes.count, codebook.dim) != train.data.shape:
        raise ConfigError(f"shape mismatch: index {(codes.count, codebook.dim)}, --train {train.data.shape}")
    # rows are sorted with ties to the lower index, so the top k of a row
    # is a prefix of its top max(ks): one scan of each kind serves every k
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
        Path(args.assignment).write_text(
            json.dumps({"p": args.p, "assignment": [int(j) for j in res.assignment]}) + "\n"
        )
    print("cost=" + VALUE_FORMAT.format(res.cost))
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
