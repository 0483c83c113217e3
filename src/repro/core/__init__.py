"""K-D Bonsai core: float formats, error model, leaf compression and search."""

from .bitstream import BitReader, BitWriter
from .bonsai_search import BonsaiLeafInspector, BonsaiRadiusSearch, BonsaiStats
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
    "BonsaiRadiusSearch",
    "BonsaiStats",
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
