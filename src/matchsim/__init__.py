"""matchsim: distributed almost-stable matching protocols on a synchronous
round simulator, with exact verification of their stability guarantees."""

from .analysis import (
    BoundCheck,
    MaximalityReport,
    VerificationReport,
    binomial_ci,
    blocking_pairs,
    check_maximal,
    classify_good_bad,
    count_blocking_pairs,
    eps_blocking_pairs,
    gale_shapley_oracle,
    is_eps_blocking,
    rate_within_claim,
    verify_run,
)
from .engine import Engine, MsgKind, ProcessorContext, RoundTrace, Topology, payload_bits
from .errors import (
    DegenerateInstance,
    InconsistentState,
    InvalidMatching,
    InvalidProfile,
    InvariantViolation,
    MatchsimError,
    NonNeighborSend,
    NotAlmostRegular,
    OversizedPayload,
    RoundCapExceeded,
)
from .maximal import (
    MatchingSubroutineSpec,
    MmNode,
    MmPhase,
    SubroutineResult,
    iterations_for_almost_maximal,
    iterations_for_maximal,
    maximal_matching,
)
from .model import (
    Matching,
    PlayerId,
    PreferenceProfile,
    QuantizedPrefs,
    Side,
    man,
    quantize,
    rank,
    woman,
)
from .protocols import (
    AlgorithmSpec,
    AsmParams,
    OuterRecord,
    PlayerFinal,
    QuantileProtocol,
    RunResult,
    men_degree_ratio,
    run_algorithm,
)
from .workbench import (
    CSV_COLUMNS,
    ExperimentConfig,
    ExperimentResult,
    GeneratorSpec,
    generate,
    instance_to_json,
    load_instance,
    load_matching,
    run_experiment,
    save_instance,
    save_matching,
)

__version__ = "0.1.0"
