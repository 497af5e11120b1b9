"""Real-number BCH-DFT codes and a Wyner-Ziv coding simulator.

Library layout:
    codes      code construction (generator, parity check, systematic form)
    pgz        real-field Peterson-Gorenstein-Zierler decoding (pgz_decode)
    wyner_ziv  syndrome- and parity-based compression pipelines
    quantize   uniform midrise scalar quantizer (quantize.quantize)
    sources    Gauss-Markov source and Bernoulli-Gaussian channel
    harness    Monte-Carlo sweeps, metrics, CSV output
    cli        command-line front end

A public name loads its submodule on first use, so ``build_code`` costs
the import of ``codes`` alone. A submodule's name is the submodule, so
``import dftwz.quantize as q`` binds the module.
"""

__version__ = "0.1.0"

_SUBMODULE = {name: module for module, names in {
    "codes": ("DftCode", "build_code", "decode_pseudo_inverse"),
    "pgz": ("ErrorEstimate", "pgz_decode"),
    "quantize": ("QuantizerSpec",),
    "sources": ("SourceSpec", "ChannelSpec"),
    "wyner_ziv": ("Message", "ReconstructionResult", "encode", "decode", "compression_ratio"),
    "harness": ("SweepConfig", "SweepResult", "sweep", "write_csv", "read_csv"),
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
