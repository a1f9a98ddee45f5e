"""Synthetic-benchmark generation (paper section 2.2).

Random basic blocks of assignment statements with the [AlWo75]
instruction-mix frequencies of Table 1, plus a corpus driver that
compiles each block through the :mod:`repro.ir` pipeline.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.synth.generator": ("GeneratorConfig", "generate_block"),
        "repro.synth.corpus": ("BenchmarkCase", "generate_cases", "generate_corpus"),
        "repro.synth.flowgen": ("FlowGeneratorConfig", "generate_flow_program"),
    },
)
