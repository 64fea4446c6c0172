"""Training-free valuation of training data for generative models.

Pipeline: load embeddings for the training set and a fixed generated
set, match every generated point to its top-k nearest training points
(exact scan or product-quantized ADC), discount each row's matches with
a softmax of negative distances, and aggregate the credits into one
value per training point. Statistical helpers (one-sided Welch test,
exact small-instance transport cost) validate the resulting values.

Each public name is imported from its module on first use, so that
importing the package, or a command that needs only some modules,
loads no more than it uses.
"""
from importlib import import_module

_MODULES = {
    "embeddings": ("EmbeddingMatrix", "load_embeddings", "save_embeddings", "validate_pair"),
    "errors": ("ConfigError", "CorruptionError", "FormatError", "GenvalError", "InternalError",
               "ValidationError"),
    "pq": ("Codebook", "PQCodes", "PQConfig", "decode", "encode", "load_index", "quantization_error",
           "save_index", "train_codebooks"),
    "search": ("MatchTables", "batch_match", "read_match_jsonl", "recall_at_k", "write_match_jsonl"),
    "stats": ("TTestResult", "TransportResult", "exact_wasserstein", "welch_t_test"),
    "synth": ("ExperimentSpec", "component_means", "make_ra2_experiment", "sample_mixture",
              "simulate_generated"),
    "valuation": ("ValuationResult", "aggregate_values", "discount_scores"),
    "workers": (),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

# the modules too, which ``from genval import *`` bound when the package
# imported every module up front
__all__ = sorted({*_HOME, *_MODULES})
__version__ = "0.1.0"


def __getattr__(name: str):
    # ``genval.pq`` and the like work after a bare ``import genval``, as
    # when the package imported every module
    if name in _MODULES:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULES, *_HOME})
