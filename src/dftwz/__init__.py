"""Real-number BCH-DFT codes and a Wyner-Ziv coding simulator.

Library layout:
    codes      code construction (generator, parity check, systematic form)
    pgz        real-field Peterson-Gorenstein-Zierler decoding
    wyner_ziv  syndrome- and parity-based compression pipelines
    quantize   uniform midrise scalar quantizer
    sources    Gauss-Markov source and Bernoulli-Gaussian channel
    harness    Monte-Carlo sweeps, metrics, CSV output
    cli        command-line front end
"""

from .codes import (
    CodeSpec,
    DftCode,
    build_code,
    decode_pseudo_inverse,
    encode,
)
from .harness import SweepConfig, SweepResult, read_csv, run_trial, sweep, write_csv
from .pgz import (
    ErrorEstimate,
    estimate_error_count,
    estimate_magnitudes,
    locate_errors,
    pgz_decode,
    solve_error_locator,
)
from .quantize import QuantizerSpec, quantize
from .sources import ChannelSpec, SourceSpec, apply_channel, gauss_markov
from .wyner_ziv import (
    ParityMessage,
    ReconstructionResult,
    SyndromeMessage,
    compression_ratio,
    parity_decode,
    parity_encode,
    syndrome_decode,
    syndrome_encode,
)

__version__ = "0.1.0"

__all__ = [
    "CodeSpec",
    "DftCode",
    "build_code",
    "decode_pseudo_inverse",
    "encode",
    "ErrorEstimate",
    "estimate_error_count",
    "solve_error_locator",
    "locate_errors",
    "estimate_magnitudes",
    "pgz_decode",
    "QuantizerSpec",
    "quantize",
    "SourceSpec",
    "ChannelSpec",
    "gauss_markov",
    "apply_channel",
    "SyndromeMessage",
    "ParityMessage",
    "ReconstructionResult",
    "syndrome_encode",
    "syndrome_decode",
    "parity_encode",
    "parity_decode",
    "compression_ratio",
    "SweepConfig",
    "SweepResult",
    "run_trial",
    "sweep",
    "write_csv",
    "read_csv",
    "__version__",
]
