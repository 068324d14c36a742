"""Target-set activation, selection, and reconfiguration on threshold graphs."""

from .activation import (
    ActivationTrace,
    Orientation,
    Residual,
    activate,
    certify_orientation,
    is_target_set,
    orientation_from_trace,
    parse_orientation,
    residual,
    shrink_threshold1_seed,
)
from .graph import (
    GraphClassReport,
    PlainGraph,
    ThresholdGraph,
    classify,
    disjoint_union,
    fvs_to_tss,
    parse_graph,
    parse_seed_set,
    serialize_graph,
    serialize_seed_set,
    vc_to_tss,
)
from .oracle import (
    OracleReport,
    enumerate_target_sets,
    ktar_decide,
    min_target_set_size,
    tj_components,
    tj_decide,
)
from .reconfig import (
    ReconfigSequence,
    Step,
    ValidityReport,
    parse_sequence,
    strip_noops,
    tar_to_tj,
    tj_to_tar,
    validate_sequence,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
