"""Sample-based profiling (the perf + perf2bolt analog).

Implements the profiling techniques of paper section 5: hardware-style
sampling with configurable events and PEBS-style skid, LBR capture,
aggregation of raw samples into a binary-level profile (perf2bolt), the
``.fdata``-like on-disk format (one writer, one reader), fleet shard
merging (merge-fdata), and — for the non-LBR ablations — edge recovery
via flow-equation repair and minimum-cost-flow inference.
"""

from repro.profiling.events import Sampler, SamplingConfig, EVENT_PRESETS
from repro.profiling.profile import BinaryProfile, write_fdata
from repro.profiling.aggregate import (
    aggregate_samples,
    profile_binary,
    AddressMapper,
    AggregationResult,
    ShardCache,
    ShardReport,
    aggregate_shards,
    load_shard_files,
)
from repro.profiling.merge import (
    FDATA_RULES,
    ShardStats,
    merge_profiles,
    normalize_profile,
    parse_fdata,
    parse_fdata_shard,
    remap_profile_names,
    scale_profile,
    shard_divergence,
)
from repro.profiling.mcf import min_cost_flow_edges
from repro.profiling.accuracy import (
    overlap_accuracy,
    ir_edge_truth,
    binary_block_truth,
    sampled_block_estimate,
)

__all__ = [
    "Sampler",
    "SamplingConfig",
    "EVENT_PRESETS",
    "BinaryProfile",
    "write_fdata",
    "parse_fdata",
    "aggregate_samples",
    "profile_binary",
    "AddressMapper",
    "AggregationResult",
    "ShardCache",
    "ShardReport",
    "aggregate_shards",
    "load_shard_files",
    "FDATA_RULES",
    "ShardStats",
    "merge_profiles",
    "normalize_profile",
    "parse_fdata_shard",
    "remap_profile_names",
    "scale_profile",
    "shard_divergence",
    "min_cost_flow_edges",
    "overlap_accuracy",
    "ir_edge_truth",
    "binary_block_truth",
    "sampled_block_estimate",
]
