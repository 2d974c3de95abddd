"""Microscaling FP4 numerics and quantized-training emulation.

Everything is numpy + binary64 emulation of block-scaled 4-bit floating
point: codecs for the element and scale formats, block quantizers, scaled
GEMM, randomized Hadamard outlier spreading, a quantized linear layer with
the training recipe knobs, and a small training harness for ablations.
"""

from .blockquant import (
    FORMATS,
    MXFP4,
    NVFP4,
    NVFP4_MIN_AMAX,
    BlockMap,
    FormatSpec,
    LayoutError,
    QuantizedTensor,
    ScalingLayout,
    block_decompose,
    cols1d,
    dequantize,
    encode_multipliers,
    global_encode_scale,
    quantize,
    rows1d,
    square2d,
)
from .codecs import (
    E2M1_GRID,
    E2M1_MAX,
    E2M1_VALUES,
    E4M3_MAX,
    E4M3_VALUES,
    InvalidCodeError,
    NearestEven,
    NEAREST,
    NonFiniteInputError,
    QuantizationError,
    ScaleRangeError,
    Stochastic,
    decode_e2m1,
    decode_e4m3,
    decode_ue8m0,
    encode_e2m1,
    encode_e4m3,
    encode_ue8m0_roundup,
    sr_round,
)
from .gemm import (
    GemmError,
    NotTransposableError,
    dequant_matmul,
    scaled_gemm,
    transpose_quantized_view,
)
from .hadamard import DimensionError, HadamardSpec, apply_rht_tiled, build_hadamard
from .harness import (
    ExemptionRule,
    ExperimentConfig,
    LRSchedule,
    RunRecord,
    SwitchSpec,
    TaskSpec,
    VARIANTS,
    config_digest,
    config_from_dict,
    config_to_dict,
    format_suite_table,
    paired_wins,
    reference_config,
    relative_loss_difference,
    run_ablation_suite,
    run_experiment,
    validate_config,
)
from .linear import (
    GemmKind,
    LinearLayerState,
    PrecisionPolicy,
    backward,
    chain_rule_violation_metric,
    forward,
)
from .reports import (
    OperandStats,
    TensorReport,
    analyze_tensor,
    format_report_table,
    quantization_stats,
    tensor_report,
)
from .rng import normals, stream_key, uniforms, uniforms_at
from .tensorfile import TensorFileError, read_tensor, write_tensor

__version__ = "0.1.0"
