"""Run one genval CLI command with a span around each public module call.

Usage: python3 tracer.py SPANS_FILE RUN_ID GENVAL_ARGS...

The command runs through ``genval.cli.main`` exactly as the ``genval``
entry point runs it; only the module attributes the CLI looks up at
call time are wrapped, so the calls, their order and every output stay
the same. A root span ``cli.<command>`` starts before genval is
imported and covers the whole command. Each span records name, start,
end (monotonic seconds, comparable across processes), parent span,
run id and work counts. Spans stay in memory and are appended to
SPANS_FILE as JSON lines when the command ends.
"""
from __future__ import annotations

import json
import os
import sys
import time
from functools import wraps


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def open(self, name: str, start: int | None = None) -> dict:
        span = {
            "id": f"{os.getpid()}-{len(self.spans)}",
            "parent": self._stack[-1]["id"] if self._stack else None,
            "run": self.run_id,
            "name": name,
            "start": time.monotonic_ns() if start is None else start,
            "counts": {},
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.monotonic_ns()
        self._stack.pop()

    def wrap(self, module, attr: str, name, count=None) -> None:
        """Replace ``module.attr`` by a traced call.

        ``name`` is the span name, or a function of the call's arguments
        that returns it; ``count(args, result)`` returns the work counts.
        """
        func = getattr(module, attr)

        @wraps(func)
        def traced(*args, **kwargs):
            span = self.open(name(args) if callable(name) else name)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                self.close(span)
            if count is not None:
                span["counts"] = count(args, result)
            return result

        setattr(module, attr, traced)

    def dump(self, path: str) -> None:
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps({**span, "start": span["start"] / 1e9, "end": span["end"] / 1e9}) + "\n")


def _stream_bytes(fh) -> int:
    if hasattr(fh, "getvalue"):
        return len(fh.getvalue())
    return os.fstat(fh.fileno()).st_size


def instrument(tracer: Tracer) -> None:
    from genval import embeddings, pq, search, stats, synth, valuation

    def match_kind(args):
        return "search.exact" if isinstance(args[0], embeddings.EmbeddingMatrix) else "search.adc"

    def match_counts(args, result):
        train, gen = args[0], args[1]
        if isinstance(train, embeddings.EmbeddingMatrix):
            pairs = train.count * gen.count
            return {"pairs": pairs, "flops": 3 * pairs * train.dim}
        codebook, codes = train
        return {"lookups": gen.count * codes.count * codebook.num_subspaces}

    def aggregate_counts(args, result):
        return {
            "credit_pairs": result.m * result.k,
            "mass_residual": abs(float(result.values.sum()) - result.m) / result.m,
        }

    tracer.wrap(embeddings, "load_embeddings", "embeddings.load",
                lambda a, r: {"bytes": os.path.getsize(a[0])})
    for module in (embeddings, synth):
        tracer.wrap(module, "save_embeddings", "embeddings.save",
                    lambda a, r: {"bytes": a[0].data.nbytes})
    tracer.wrap(synth, "make_ra2_experiment", "synth.experiment")
    tracer.wrap(search, "batch_match", match_kind, match_counts)
    tracer.wrap(search, "write_match_jsonl", "search.jsonl_write",
                lambda a, r: {"bytes": a[1].tell()})
    tracer.wrap(search, "read_match_jsonl", "search.jsonl_read",
                lambda a, r: {"bytes": _stream_bytes(a[0])})
    tracer.wrap(search, "recall_at_k", "search.recall")
    tracer.wrap(valuation, "aggregate_values", "valuation.aggregate", aggregate_counts)
    tracer.wrap(stats, "welch_t_test", "stats.welch")
    tracer.wrap(stats, "exact_wasserstein", "stats.wasserstein",
                lambda a, r: {"points": a[0].count + a[1].count})
    tracer.wrap(pq, "train_codebooks", "pq.train")
    tracer.wrap(pq, "encode", "pq.encode", lambda a, r: {
        "distance_evals": a[0].count * a[1].num_subspaces * a[1].codebook_size})
    tracer.wrap(pq, "decode", "pq.decode")
    tracer.wrap(pq, "quantization_error", "pq.quantization_error")
    tracer.wrap(pq, "save_index", "pq.save_index")
    tracer.wrap(pq, "load_index", "pq.load_index")


def main() -> int:
    start = time.monotonic_ns()
    spans_path, run_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer(run_id)
    root = tracer.open(f"cli.{argv[0]}", start=start)
    try:
        from genval import cli

        instrument(tracer)
        return cli.main(argv)
    finally:
        tracer.close(root)
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
