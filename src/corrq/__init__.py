"""Distributed mean estimation with shared-randomness quantizers.

The package is organized in layers. `randomness` supplies the portable
deterministic streams every client derives from one shared seed.
`scalar_quant` and `vector_quant` hold the quantizers themselves, from
the one-bit correlated scheme up to the rotated pipelines and the
independent baselines. `bitcodec` defines the exact wire format.
`harness` runs every scheme on one engine: `run_round` is one quantized
round, a `harness.Round` whose estimate is `run_dme`'s for a trial of the
same key (each vector op is one call of it), and `run_dme` measures
estimation error over many trials against the guaranteed ceilings and
floors.
`tasks` runs distributed computations (k-means, power iteration, SGD,
federated averaging) on top of the same primitive, and `cli` ties it
together as the `corrq` command.
"""

from .bitcodec import (
    BitStream,
    CodecError,
    MalformedStreamError,
    WireMessage,
    elias_gamma_decode,
    elias_gamma_encode,
    message_decode,
    message_encode,
)
from .harness import (
    SCHEMES,
    SyntheticSpec,
    TrialReport,
    generate,
    hadamard_bias_bound,
    k_level_envelope,
    k_level_floor,
    one_bit_envelope,
    one_bit_floor,
    reports_to_csv,
    run_dme,
    run_round,
    sweep,
    vector_envelope,
)
from .randomness import (
    build_context,
    build_context_arrays,
    derive_key,
    trial_seeds,
)
from .scalar_quant import (
    ScalarBatch,
    concentration_stats,
)
from .tasks import (
    OptimizerConfig,
    SgdProblem,
    ShardedDataset,
    TaskResult,
    distributed_kmeans,
    distributed_power_iteration,
    distributed_sgd,
    federated_averaging,
    quantized_round,
)
from .vector_quant import (
    VectorBatch,
    correlated_vector_cq,
    entropy_cq,
    fwht,
    independent_vector_sq,
    rotate_sign_baseline,
    ternary_quantize,
    vector_concentration,
    walsh_hadamard_cq,
)

__version__ = "0.1.0"

__all__ = [
    "BitStream",
    "CodecError",
    "MalformedStreamError",
    "OptimizerConfig",
    "SCHEMES",
    "ScalarBatch",
    "SgdProblem",
    "ShardedDataset",
    "SyntheticSpec",
    "TaskResult",
    "TrialReport",
    "VectorBatch",
    "WireMessage",
    "build_context",
    "build_context_arrays",
    "concentration_stats",
    "correlated_vector_cq",
    "derive_key",
    "distributed_kmeans",
    "distributed_power_iteration",
    "distributed_sgd",
    "elias_gamma_decode",
    "elias_gamma_encode",
    "entropy_cq",
    "federated_averaging",
    "fwht",
    "generate",
    "hadamard_bias_bound",
    "independent_vector_sq",
    "k_level_envelope",
    "k_level_floor",
    "message_decode",
    "message_encode",
    "one_bit_envelope",
    "one_bit_floor",
    "quantized_round",
    "reports_to_csv",
    "rotate_sign_baseline",
    "run_dme",
    "run_round",
    "sweep",
    "ternary_quantize",
    "trial_seeds",
    "vector_concentration",
    "vector_envelope",
    "walsh_hadamard_cq",
]
