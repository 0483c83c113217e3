"""K-D Bonsai core: float formats, error model, leaf compression and the
compressed leaf inspector.

The searches themselves are the execution backends of :mod:`repro.engine`:
``bonsai-batched`` (:mod:`repro.runtime.bonsai`) runs the leaf kernels over
query batches, and the recorded Bonsai walk
(:class:`~repro.engine.backends.BonsaiPerQueryBackend`) runs
:class:`BonsaiLeafInspector` under the per-query traversal after
:func:`compress_and_record`.
"""

from .bitstream import BitReader, BitWriter
from .bonsai_search import BonsaiLeafInspector, BonsaiStats, compress_and_record
from .compressed_leaf import CompressedStructArray, CompressionReport, compress_tree
from .error_model import (
    Classification,
    PartErrorTable,
    ShellClassifier,
    approximate_squared_distance,
    classify_exact,
    classify_with_shell,
    max_delta,
    max_eps_sd,
    squared_difference_with_error,
)
from .floatfmt import (
    BFLOAT16,
    FLOAT16,
    FLOAT24,
    FLOAT32,
    FORMATS_BY_NAME,
    FloatFormat,
    bits_to_float32,
    decompose_float32,
    float32_bits,
    table1_formats,
)
from .leaf_compression import (
    MAX_POINTS_PER_LEAF,
    ZIPPTS_SLICE_BYTES,
    CompressedLeaf,
    compress_leaf,
    compressed_size_bits,
    decompress_leaf,
)
from .stats import LeafSimilarityStats, aggregate_similarity, leaf_similarity

__all__ = [
    "BitReader",
    "BitWriter",
    "BonsaiLeafInspector",
    "BonsaiStats",
    "compress_and_record",
    "CompressedStructArray",
    "CompressionReport",
    "compress_tree",
    "Classification",
    "PartErrorTable",
    "ShellClassifier",
    "approximate_squared_distance",
    "classify_exact",
    "classify_with_shell",
    "max_delta",
    "max_eps_sd",
    "squared_difference_with_error",
    "BFLOAT16",
    "FLOAT16",
    "FLOAT24",
    "FLOAT32",
    "FORMATS_BY_NAME",
    "FloatFormat",
    "bits_to_float32",
    "decompose_float32",
    "float32_bits",
    "table1_formats",
    "MAX_POINTS_PER_LEAF",
    "ZIPPTS_SLICE_BYTES",
    "CompressedLeaf",
    "compress_leaf",
    "compressed_size_bits",
    "decompress_leaf",
    "LeafSimilarityStats",
    "aggregate_similarity",
    "leaf_similarity",
]
