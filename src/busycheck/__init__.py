"""busycheck: termination checker and semantics workbench for a toy
concurrent language with abrupt exit and busy-waiting."""

from .lang import (
    EXIT,
    Exit,
    Fork,
    LOOP_SKIP,
    LoopSkip,
    ParseError,
    Seq,
    parse,
    pretty,
)
from .assertions import (
    CREDIT,
    FALSE,
    Obs,
    ResourceBundle,
    Star,
    TRUE,
    normalize as normalize_assertion,
    satisfies,
    view_shift,
)
from .semantics import (
    initial_pool,
    is_fair_prefix,
    oracle_diverges,
    random_fair,
    rotated_round_robin,
    round_robin,
    run,
    step_pool,
)
from .proofs import check_proof, derive, verify
from .ghost import (
    annotate,
    check_balance,
    ghost_step,
    real_step,
)
from .pog import build_pog, check_leaf_balance, max_loopfree_sc_prefix, sibling_closed
from .harness import GenConfig, gen_program, soundness_campaign

__version__ = "0.1.0"
