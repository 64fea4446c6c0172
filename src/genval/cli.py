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
usage/config/data error, an input too large for memory or a failed
write to stdout, however late, 3 violated internal invariant. Data goes
to stdout (or ``--output``), diagnostics to stderr. A standard stream
closed at start reads as empty or drops what is written to it, and a
broken stderr drops the error line: neither changes the exit code.

Each command imports the modules it runs when it runs, and calls them
as ``module.function``, looked up at the call: ``compare`` runs on the
standard library alone, without numpy.
"""
from __future__ import annotations

import argparse
import heapq
import json
import os
import sys
from array import array
from bisect import bisect_left
from contextlib import nullcontext, suppress
from dataclasses import dataclass
from itertools import islice
from operator import lt
from pathlib import Path
from typing import TYPE_CHECKING

from . import textio
from .errors import ConfigError, FormatError, GenvalError, InternalError

if TYPE_CHECKING:
    from . import search

VALUE_FORMAT = "%.9g"
# rows of the value CSV formatted per write, or sorted per run
VALUE_ROWS = 4096


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
    Option("num_subspaces", int, 8, ("build-index",), "PQ subspaces"),
    Option("codebook_size", int, 256, ("build-index",), "centroids per subspace"),
    Option("kmeans_iters", int, 25, ("build-index",), "Lloyd iterations"),
    Option("temperature", float, 1.0, ("value",), "softmax sharpness"),
    Option("output", str, None, ("build-index", "match", "value"), "output file ('-' or unset: stdout)"),
    Option("summary", str, None, ("value",),
           "write a JSON run summary here ('-' for stdout, with --output a file)"),
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


def _resolve_options(args) -> None:
    """Set every option of the subcommand on ``args``: flag > config > default."""
    config = textio.read_json(args.config, "config file") if args.config else {}
    if not isinstance(config, dict):
        raise ConfigError(f"{args.config}: config file must hold a flat JSON object")
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
    from . import embeddings

    return embeddings.load_embeddings(_required(args, name), format=args.format, skip_header=args.header)


def _out_stream(path):
    """stdout for ``None`` or ``-``, else ``path`` replaced whole or not at all."""
    if path is None or path == "-":
        return nullcontext(sys.stdout)
    from . import embeddings

    return embeddings.replacing(path, text=True)


def cmd_synth(args) -> int:
    from . import synth

    out_dir = _required(args, "out_dir")
    spec = synth.ExperimentSpec(
        dim=args.dim,
        n_per_split=args.n_per_split,
        mixture_components=args.components,
        component_spread=args.spread,
        noise_sigma=args.noise_sigma,
        m_generated=args.m,
        seed=args.seed,
    )
    files = synth.make_ra2_experiment(spec, out_dir)
    print(files["manifest"].read_text(encoding="utf-8"), end="")
    return 0


def cmd_build_index(args) -> int:
    from . import embeddings, pq

    # every stage reads --train through its fill, a block at a time; the
    # input is checked whole, then the config, then --output, before
    # training starts
    with embeddings.open_rows(_required(args, "train"), args.format, args.header) as train:
        embeddings.check_rows(train)
        cfg = pq.PQConfig(
            num_subspaces=args.num_subspaces,
            codebook_size=args.codebook_size,
            kmeans_iters=args.kmeans_iters,
            seed=args.seed,
        )
        cfg.validate(train.dim, train.count)
        output = _required(args, "output")
        codebook = pq.train_codebooks(train, cfg)
        codes = pq.encode(train, codebook)
        pq.save_index(codebook, codes, output)
        qe = pq.quantization_error(train, codebook, codes)
    print("quantization_error=" + VALUE_FORMAT % qe)
    return 0


def _match_tables(args) -> tuple[search.MatchTables, int]:
    """Run matching per the mode flags; returns (tables, training count)."""
    from . import embeddings, search

    gen = _load_matrix(args, "gen")
    if args.mode == "exact":
        with embeddings.open_rows(_required(args, "train"), args.format, args.header) as train:
            return search.batch_match(train, gen, args.k), train.count
    from . import pq

    codebook, codes = pq.load_index(_required(args, "index"))
    return search.batch_match((codebook, codes), gen, args.k), codes.count


def cmd_match(args) -> int:
    from . import search

    tables, _ = _match_tables(args)
    with _out_stream(args.output) as fh:
        search.write_match_jsonl(tables, fh)
    return 0


def cmd_value(args) -> int:
    values_to_stdout = args.output in (None, "-")
    if args.summary == "-":
        if values_to_stdout:
            raise ConfigError("--summary - and the values CSV would both go to stdout; give --output a file")
    # a summary renamed to the values' path would be renamed over by them
    elif args.summary is not None and not values_to_stdout \
            and os.path.realpath(args.output) == os.path.realpath(args.summary):
        raise ConfigError(f"--summary {args.summary} and --output {args.output} name the same file")

    import numpy as np

    from . import search, valuation

    if args.inline:
        tables, n = _match_tables(args)
        # the distances a piped run reads, so that inline and piped
        # execution agree byte for byte
        tables = search.as_written(tables)
    else:
        path = args.matches or "-"
        with textio.open_text(path) as fh:
            tables = search.read_match_jsonl(fh, "match stream" if path == "-" else f"{path}: match stream")
        if args.n is not None:
            n = args.n
        elif args.train is not None:
            from . import embeddings

            with embeddings.open_rows(_required(args, "train"), args.format, args.header) as train:
                embeddings.check_rows(train)
                n = train.count
        else:
            raise ConfigError("need --n or --train to size the value vector")
    result = valuation.aggregate_values(tables, n, args.temperature)
    rank = np.empty(result.n, dtype=np.int64)
    rank[result.ranking] = np.arange(1, result.n + 1)
    # the summary is written inside the values' block, so a summary that
    # cannot be written leaves no values file either
    with _out_stream(args.output) as fh:
        _write_value_csv(fh, result.values, rank)
        if args.summary is not None:
            summary = {
                "n": result.n,
                "m": result.m,
                "k": result.k,
                "temperature": args.temperature,
                "sum_values": float(result.values.sum()),
                "top_indices": [int(i) for i in result.ranking[:10]],
            }
            with _out_stream(args.summary) as out:
                out.write(json.dumps(summary, sort_keys=True) + "\n")
    return 0


def _write_value_csv(fh, values, rank) -> None:
    """Write the value CSV of the float64 ``values`` and int64 ``rank``
    arrays, ``VALUE_ROWS`` rows formatted at a time."""
    fh.write("train_index,value,rank\n")
    for lo in range(0, len(values), VALUE_ROWS):
        hi = min(lo + VALUE_ROWS, len(values))
        fields = [None] * (3 * (hi - lo))
        fields[0::3], fields[1::3], fields[2::3] = range(lo, hi), values[lo:hi].tolist(), rank[lo:hi].tolist()
        fh.write(("%d," + VALUE_FORMAT + ",%d\n") * (hi - lo) % tuple(fields))


def _read_value_csv(path, by_index: bool = False) -> tuple[array, array]:
    """The train_index (int64) and value (float64) columns of a value CSV,
    in file order, or sorted by train_index with ``by_index``; an error
    names the first line at fault."""
    path = Path(path)
    index, value = array("q"), array("d")
    header, bad = False, None  # bad: the error of the first line that does not parse
    with textio.open_text(path) as fh:
        for lineno, line in enumerate(textio.read_lines(fh, f"{path}:"), start=1):
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
    del index[len(value):]
    # rows in ascending train_index, as value writes them, need no sort;
    # else a stable sort puts each train_index's rows in file order, so
    # every row after the first of its run repeats an earlier line's index
    order, row = None, None
    if not all(map(lt, index, islice(index, 1, None))):
        order = _stable_order(index)
        row = min((j for i, j in zip(order, islice(order, 1, None)) if index[i] == index[j]), default=None)
    if row is not None:
        bad = f"line {row + 1 + header}: duplicate train_index {index[row]}"
    elif bad is None and not index:
        bad = "no value rows"
    if bad is not None:
        raise FormatError(f"{path}: {bad}")
    if by_index and order is not None:
        # one column at a time, so that only one copy is held
        index = array("q", map(index.__getitem__, order))
        value = array("d", map(value.__getitem__, order))
    return index, value


def _stable_order(index: array) -> array:
    """The rows of ``index`` by ascending value, rows of equal value in row
    order (a stable argsort), as an int64 array: runs of ``VALUE_ROWS``
    rows are sorted, then merged, so no Python list is longer than a run."""
    runs = array("q")
    for lo in range(0, len(index), VALUE_ROWS):
        runs.extend(sorted(range(lo, min(lo + VALUE_ROWS, len(index))), key=index.__getitem__))
    view = memoryview(runs)
    # on a tie the merge takes the earlier run, that is the earlier row
    merged = heapq.merge(*(view[lo : lo + VALUE_ROWS] for lo in range(0, len(runs), VALUE_ROWS)),
                         key=index.__getitem__)
    return array("q", merged)


def _pick(index: array, value: array, name: str, wanted: list) -> array:
    """The values of the rows whose train_index ``wanted`` lists, in its
    order; ``index`` is sorted, without repeats, and ``value`` follows it."""
    n = len(index)
    at = [bisect_left(index, i) for i in wanted]
    for i, t in zip(wanted, at):
        if not (t < n and index[t] == i):
            raise ConfigError(f"group {name!r} references train_index {i} missing from the value CSV")
    return array("d", map(value.__getitem__, at))


def _compare_groups(args) -> tuple[array, array, str, str]:
    if args.values_a is not None and args.values_b is not None:
        a = _read_value_csv(args.values_a)[1]
        b = _read_value_csv(args.values_b)[1]
        return a, b, "a", "b"
    if args.values is not None and args.partition is not None:
        index, value = _read_value_csv(args.values, by_index=True)
        groups = textio.read_json(args.partition, "partition file")
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
    from . import stats

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
    from . import embeddings, pq, search

    # the scans run at max(1, 10, k), which hides a k below 1 from batch_match
    if args.k < 1:
        raise ConfigError("k must be >= 1")
    with embeddings.open_rows(_required(args, "train"), args.format, args.header) as train:
        gen = _load_matrix(args, "gen")
        codebook, codes = pq.load_index(_required(args, "index"))
        if (codes.count, codebook.dim) != (train.count, train.dim):
            raise ConfigError(
                f"shape mismatch: index {(codes.count, codebook.dim)}, --train {(train.count, train.dim)}")
        # rows are sorted with ties to the lower index, so the top k of a
        # row is a prefix of its top max(ks): one scan of each kind serves
        # every k
        ks = sorted({1, 10, args.k})
        exact = search.batch_match(train, gen, ks[-1])
    approx = search.batch_match((codebook, codes), gen, ks[-1])
    for k in ks:
        print(f"recall@{k}={search.recall_at_k(_prefix(approx, k), _prefix(exact, k)):.6f}")
    return 0


def _prefix(tables: search.MatchTables, k: int) -> search.MatchTables:
    from . import search

    return search.MatchTables(tables.distances[:, :k], tables.indices[:, :k])


def cmd_wasserstein(args) -> int:
    if args.assignment == "-":
        raise ConfigError("--assignment - and the cost would both go to stdout; give --assignment a file")
    from . import stats

    source = _load_matrix(args, "source")
    target = _load_matrix(args, "target")
    res = stats.exact_wasserstein(source, target, p=args.p)
    if args.assignment is not None:
        with _out_stream(args.assignment) as fh:
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
    # a stream closed at start is None: a stand-in on os.devnull takes its
    # place and its descriptor, which no file opened later can then get
    for name, mode in (("stdin", "r"), ("stdout", "w"), ("stderr", "w")):
        if getattr(sys, name) is None:
            setattr(sys, name, open(os.devnull, mode, encoding="utf-8"))
    try:
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            code = int(exc.code or 0)
        else:
            _resolve_options(args)
            code = args.func(args)
        sys.stdout.flush()  # so a write failing this late is exit 2
        return code
    except (GenvalError, OSError) as exc:
        return _error(f"genval: error: {exc}", 2)
    except MemoryError as exc:
        return _error(f"genval: error: out of memory: {exc}", 2)
    except InternalError as exc:
        return _error(f"genval: internal error: {exc}", 3)


def _error(line: str, code: int) -> int:
    """Flush stdout, write ``line`` to stderr and return ``code``; a stream
    that fails here is ignored, as there is nowhere left to report it."""
    with suppress(OSError):
        sys.stdout.flush()
    with suppress(OSError):
        print(line, file=sys.stderr)
    return code


def entrypoint() -> None:
    """``main()``, then ``os._exit``, as a forked worker leaves: no teardown
    and no exit handler (``main`` flushed stdout; stderr is line-buffered)."""
    os._exit(main())


if __name__ == "__main__":
    entrypoint()
