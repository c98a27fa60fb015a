"""Exact simulator and certified strategy search for the discrete
two-controller damping circuit with entangled controllers."""

from .bounds import (
    BoundSet,
    SeparationCertificate,
    bounds_for_instance,
    certify_separation,
    compute_bounds,
    decoder_estimates_exact,
    format_certificate,
    pxmin,
    pzmin_lower_bound,
    strategy_to_code,
)
from .channel import (
    ChannelInput,
    ConfusabilityGraph,
    EncoderMap,
    FiniteChannel,
    NtChannel,
    ZeroErrorCode,
    ZeroErrorVerdict,
    build_ks_channel,
    code_from_independent_set,
    confusability_graph,
    independence_number,
    output_pair,
    verify_zero_error,
)
from .control import (
    CostReport,
    DeterministicStrategy,
    SearchResult,
    SharedRandomnessStrategy,
    SignalTrace,
    WitsenhausenInstance,
    evaluate_deterministic,
    evaluate_quantum,
    evaluate_sr,
    make_instance,
    optimal_c2_for_c1,
    search_deterministic,
)
from .entangled import (
    MeasurementBranch,
    QuantumDecodeError,
    QuantumZeroErrorReport,
    decoder_decode,
    encoder_branches,
    maximally_entangled_state,
    run_zero_error_quantum,
)
from .exact import ComplexFraction, Vector, is_orthogonal
from .ks import (
    KSBasisSet,
    bundled_basis_set,
    conjugate_basis,
    load_basis_set,
    save_basis_set,
    validate_basis_set,
    verify_ks_property,
)

__version__ = "0.1.0"
