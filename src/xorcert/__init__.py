"""Certified refutation of weighted XOR systems, explicit pseudorandom
right-hand sides, and range avoidance for low-depth circuits."""

from .core import (
    Dyadic,
    Hypergraph,
    ValidationError,
    XorInstance,
    XorScheme,
    make_instance,
    validate_instance,
)
from .circuits import (
    Circuit,
    JuntaGate,
    LayeredCircuit,
    Leaf,
    Node,
    WordDecisionTree,
    eval_circuit,
    to_layered,
)
from .fourier import (
    FourierExpansion,
    ParityClass,
    classify_parity,
    expand_junta,
    expand_layered_output,
)
from .prg import GeneratorSpec, sample, sample_int, seed_count
from .reduction import SchemeEnsemble, attach_rhs, group_characters, nonadaptive_split
from .refuter import (
    Certificate,
    KikuchiOperator,
    RefuteParams,
    build_kikuchi,
    odd_to_even,
    refute,
    spectral_certificate,
    trace_certificate,
)
from .avoid import (
    AvoidParams,
    AvoidResult,
    CertifyParams,
    RemoteCertificate,
    certify_not_in_range,
)
from .oracle import (
    brute_bias,
    brute_independence,
    brute_min_distance,
    brute_range_member,
    brute_val,
    check_decomposition,
)

__all__ = [name for name in dir() if not name.startswith("_")]
