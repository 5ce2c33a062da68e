"""Logic-checked strategic reasoning for LLM agents in 2x2 matrix games.

The pieces, bottom up: a term/unification layer and an SLD resolution
engine (terms, engine); a clause language and bundled game programs in
situation-calculus style (gdl, games); a query catalogue with
evaluation, corrections and feedback rendering (verification); an LLM
gateway with scripted mocks and record/replay cassettes (gateway); the
reasoning-to-queries translation layer (translator); the
self-correction session loop (orchestrator); and batch experiments
with agreement statistics (experiments). `lelma` on the command line
fronts all of it.
"""

from .engine import (
    FlounderedNegation,
    LimitExceeded,
    LogicError,
    ResolutionLimits,
    UnknownPredicate,
    solve,
    solve_all,
)
from .experiments import (
    ExperimentConfig,
    confusion_matrix,
    fleiss_kappa,
    load_experiment_config,
    run_experiment,
)
from .games import GameSpec, enumerate_outcomes, load_game
from .gateway import ChatMessage, CompletionResult, Gateway, ModelConfig, Usage
from .gdl import ClauseSyntaxError, parse_clause, parse_goal, parse_program
from .orchestrator import (
    ExitReason,
    LoopConfig,
    SessionTranscript,
    read_transcript,
    run_session,
    write_transcript,
)
from .translator import build_translation_prompt, parse_queries
from .verification import (
    Query,
    QueryKind,
    VerificationReport,
    evaluate_all,
    parse_query_line,
    render_feedback,
)

__version__ = "0.10.0"

__all__ = [
    "ChatMessage",
    "ClauseSyntaxError",
    "CompletionResult",
    "ExitReason",
    "ExperimentConfig",
    "FlounderedNegation",
    "GameSpec",
    "Gateway",
    "LimitExceeded",
    "LogicError",
    "LoopConfig",
    "ModelConfig",
    "Query",
    "QueryKind",
    "ResolutionLimits",
    "SessionTranscript",
    "UnknownPredicate",
    "Usage",
    "VerificationReport",
    "build_translation_prompt",
    "confusion_matrix",
    "enumerate_outcomes",
    "evaluate_all",
    "fleiss_kappa",
    "load_experiment_config",
    "load_game",
    "parse_clause",
    "parse_goal",
    "parse_program",
    "parse_queries",
    "parse_query_line",
    "read_transcript",
    "render_feedback",
    "run_experiment",
    "run_session",
    "solve",
    "solve_all",
    "write_transcript",
    "__version__",
]
