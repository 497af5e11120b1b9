"""Real-number BCH-DFT codes and a Wyner-Ziv coding simulator.

Library layout:
    codes      code construction (generator, parity check, systematic form)
    pgz        real-field Peterson-Gorenstein-Zierler decoding (pgz_decode)
    wyner_ziv  syndrome- and parity-based compression pipelines
    quantize   uniform midrise scalar quantizer
    sources    Gauss-Markov source and Bernoulli-Gaussian channel
    harness    Monte-Carlo sweeps, metrics, CSV output
    cli        command-line front end

A public name loads its submodule on first use, so ``build_code`` costs
the import of ``codes`` alone.
"""

import sys
import types

__version__ = "0.1.0"

_SUBMODULE = {name: module for module, names in {
    "codes": ("CodeSpec", "DftCode", "build_code", "decode_pseudo_inverse", "encode"),
    "pgz": ("ErrorEstimate", "pgz_decode"),
    "quantize": ("QuantizerSpec", "quantize"),
    "sources": ("SourceSpec", "ChannelSpec"),
    "wyner_ziv": ("Message", "ReconstructionResult", "syndrome_encode", "syndrome_decode",
                  "parity_encode", "parity_decode", "compression_ratio"),
    "harness": ("SweepConfig", "SweepResult", "run_trial", "sweep", "write_csv", "read_csv"),
}.items() for name in names}

__all__ = [*_SUBMODULE, "__version__"]


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own path, which -X importtime reports
    module = __import__(_SUBMODULE[name], globals(), level=1, fromlist=[name])
    globals()[name] = value = getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(types.ModuleType):
    """Importing the submodule ``quantize`` binds it on the package; the
    public name ``quantize`` is the function, so keep that binding."""

    def __setattr__(self, name, value):
        if not (name in _SUBMODULE and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
