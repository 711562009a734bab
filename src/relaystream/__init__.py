"""Subset-adaptive streaming erasure codes for a source-relay-destination
network: rate/size calculators, the three codec stages, adversarial
verification, Monte-Carlo loss estimation, and the two-user rate region.
"""

from .erasure_channel import (
    ChannelConfig,
    HorizonTooLarge,
    count_admissible,
    enumerate_admissible,
    is_admissible,
    pattern_from_bits,
)
from .field_mds import GaloisField, MdsCode, is_prime_power, make_field
from .scheme_params import (
    DerivedDims,
    InvalidParams,
    SchemeParams,
    derive_dims,
    implemented_field_size,
    nominal_field_size,
    nonadaptive_rate,
    optimal_j,
    packet_size_bits,
    rate_r1,
    rate_r2,
    scheme_rate,
    summarize,
    worst_case_n2,
)
from .source_codec import EstimateLedger, SourcePacket, encode_source
from .relay_codec import (
    RelayPacket,
    RelayState,
    Schedule,
    build_message_plan,
    decode_header,
    encode_header,
    slot_layout,
)
from .dest_codec import FAILED, DecoderState
from .sim_harness import (
    EpisodeReport,
    LossEstimate,
    VerifyReport,
    all_valid_params,
    attainable_payload,
    emit_figure_data,
    exhaustive_verify,
    loss_probability,
    run_episode,
)
from .mac_region import (
    MacParams,
    RateRegion,
    build_region,
    emit_region_csv,
    interleaved_spot_check,
    pp_capacity,
    region_field_size,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelConfig",
    "DecoderState",
    "DerivedDims",
    "EpisodeReport",
    "EstimateLedger",
    "FAILED",
    "GaloisField",
    "HorizonTooLarge",
    "InvalidParams",
    "LossEstimate",
    "MacParams",
    "MdsCode",
    "RateRegion",
    "RelayPacket",
    "RelayState",
    "Schedule",
    "SchemeParams",
    "SourcePacket",
    "VerifyReport",
    "all_valid_params",
    "attainable_payload",
    "build_message_plan",
    "build_region",
    "count_admissible",
    "decode_header",
    "derive_dims",
    "emit_figure_data",
    "emit_region_csv",
    "encode_header",
    "encode_source",
    "enumerate_admissible",
    "exhaustive_verify",
    "implemented_field_size",
    "interleaved_spot_check",
    "is_admissible",
    "is_prime_power",
    "loss_probability",
    "make_field",
    "nominal_field_size",
    "nonadaptive_rate",
    "optimal_j",
    "packet_size_bits",
    "pattern_from_bits",
    "pp_capacity",
    "rate_r1",
    "rate_r2",
    "region_field_size",
    "run_episode",
    "scheme_rate",
    "slot_layout",
    "summarize",
    "worst_case_n2",
    "__version__",
]
