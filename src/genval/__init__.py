"""Training-free valuation of training data for generative models.

Pipeline: load embeddings for the training set and a fixed generated
set, match every generated point to its top-k nearest training points
(exact scan or product-quantized ADC), discount each row's matches with
a softmax of negative distances, and aggregate the credits into one
value per training point. Statistical helpers (one-sided Welch test,
exact small-instance transport cost) validate the resulting values.
"""
from .embeddings import (
    EmbeddingMatrix,
    load_embeddings,
    save_embeddings,
    validate_pair,
)
from .errors import (
    ConfigError,
    CorruptionError,
    FormatError,
    GenvalError,
    InternalError,
    ValidationError,
)
from .pq import (
    Codebook,
    PQCodes,
    PQConfig,
    decode,
    encode,
    load_index,
    quantization_error,
    save_index,
    train_codebooks,
)
from .search import (
    MatchTables,
    adc_lookup_table,
    batch_match,
    read_match_jsonl,
    recall_at_k,
    write_match_jsonl,
)
from .stats import (
    TTestResult,
    TransportResult,
    exact_wasserstein,
    welch_t_test,
)
from .synth import (
    ExperimentSpec,
    component_means,
    make_ra2_experiment,
    sample_mixture,
    simulate_generated,
)
from .valuation import (
    ValuationResult,
    aggregate_values,
    discount_scores,
    rank_training_points,
)

__version__ = "0.1.0"
