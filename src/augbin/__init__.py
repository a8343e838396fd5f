"""Category-isolating augmented binary encoding with an equivalence harness.

The package implements three interchangeable first-layer encoders for a
single high-cardinality categorical feature (one-hot, plain binary, and
binary augmented with per-category and per-bit correction memories), a small
deterministic SGD engine around them, and a harness that proves the
augmented encoder reproduces one-hot behavior category for category at
binary-encoding cost.
"""

from .bitcode import BitCode, CategoryVocab, bit_matrix, bit_width, build_vocab, decode, encode
from .counters import OpCounters, expected_counts
from .data import (
    Dataset,
    DatasetSchema,
    load_csv,
    load_csv_split,
    save_csv,
    split_rows,
    synth_gen,
)
from .errors import (
    InvalidArgumentError,
    NumericError,
    ParseError,
    RangeError,
    VocabMissError,
)
from .gradcheck import (
    GradCheckResult,
    analytic_gradients,
    check_gradients,
    numeric_gradients,
    relu_margin,
)
from .harness import (
    DivergenceTrace,
    ProbeResult,
    ReplayReport,
    TwinPair,
    VerificationOutcome,
    VerifyConfig,
    brute_force_check,
    build_onehot_twin,
    divergence_budget,
    interference_errors,
    isolation_errors,
    isolation_probe,
    lockstep_train,
    probe_inputs,
    run_gradcheck_config,
    run_verification,
    synthetic_stream,
    twin_forward_max_diff,
)
from .layers import (
    AugmentedBinaryLayer,
    BinaryLayer,
    OneHotLayer,
    contributions_matrix,
)
from .network import (
    Activation,
    DenseLayer,
    ForwardCache,
    Network,
    NetworkConfig,
    SgdConfig,
    build_network,
    mean_loss,
    mse_gradient,
    mse_loss,
    run_sgd,
)
from .report import (
    SCHEMA_VERSION,
    make_report,
    read_report,
    render_report,
    validate_report,
    write_report,
)
from .rng import SplitMix64

__version__ = "0.1.0"

__all__ = [
    "Activation",
    "AugmentedBinaryLayer",
    "BinaryLayer",
    "BitCode",
    "CategoryVocab",
    "Dataset",
    "DatasetSchema",
    "DenseLayer",
    "DivergenceTrace",
    "ForwardCache",
    "GradCheckResult",
    "InvalidArgumentError",
    "Network",
    "NetworkConfig",
    "NumericError",
    "OneHotLayer",
    "OpCounters",
    "ParseError",
    "ProbeResult",
    "RangeError",
    "ReplayReport",
    "SCHEMA_VERSION",
    "SgdConfig",
    "SplitMix64",
    "TwinPair",
    "VerificationOutcome",
    "VerifyConfig",
    "VocabMissError",
    "analytic_gradients",
    "bit_matrix",
    "bit_width",
    "brute_force_check",
    "build_network",
    "build_onehot_twin",
    "build_vocab",
    "check_gradients",
    "contributions_matrix",
    "decode",
    "divergence_budget",
    "encode",
    "expected_counts",
    "interference_errors",
    "isolation_errors",
    "isolation_probe",
    "load_csv",
    "load_csv_split",
    "lockstep_train",
    "make_report",
    "mean_loss",
    "mse_gradient",
    "mse_loss",
    "numeric_gradients",
    "probe_inputs",
    "read_report",
    "relu_margin",
    "render_report",
    "run_sgd",
    "run_gradcheck_config",
    "run_verification",
    "save_csv",
    "split_rows",
    "synth_gen",
    "synthetic_stream",
    "twin_forward_max_diff",
    "validate_report",
    "write_report",
    "__version__",
]
