"""Real-number BCH-DFT codes and a Wyner-Ziv coding simulator.

Library layout:
    codes      code construction (generator, parity check, systematic form)
    pgz        real-field Peterson-Gorenstein-Zierler decoding (pgz_decode)
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
from .pgz import ErrorEstimate, pgz_decode
from .quantize import QuantizerSpec, quantize
from .sources import ChannelSpec, SourceSpec
from .wyner_ziv import (
    Message,
    ReconstructionResult,
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
    "pgz_decode",
    "QuantizerSpec",
    "quantize",
    "SourceSpec",
    "ChannelSpec",
    "Message",
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
