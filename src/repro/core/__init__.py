"""The paper's contribution: TDS (Algorithm 1) over DBS (Algorithm 2)."""

from .budget import Budget, BudgetExhausted, default_budget
from .contexts import Context, contexts_of, subexpressions_of, trivial_context
from .dbs import DbsOptions, DbsResult, DbsStats, dbs
from .dsl_parser import DslParseError, parse_dsl
from .engine import (
    Enumerator,
    PoolOptions,
    PoolStore,
    StrategyRegistry,
    SynthesisSession,
    default_registry,
)
from .dsl import (
    ConditionalRule,
    Dsl,
    DslBuilder,
    DslError,
    Example,
    LambdaSpec,
    LoopRule,
    NtRef,
    Production,
    Signature,
)
from .evaluator import Env, EvaluationError, run_program, try_run
from .expr import (
    Call,
    Const,
    Expr,
    Foreach,
    ForLoop,
    Function,
    Hole,
    If,
    Lambda,
    LasyCall,
    Param,
    Recurse,
    Var,
    count_branches,
)
from .program import LookupFunction, SynthesizedFunction
from .rewrite import (
    PCall,
    PConst,
    PVar,
    RewriteRule,
    Rewriter,
    parse_rule,
)
from .angelic import angelic_prune
from .incremental import WarmTdsSession, repair, resynthesize
from .tds import TdsOptions, TdsResult, TdsSession, TdsStep, tds
from .types import (
    ANY,
    BOOL,
    CHAR,
    INT,
    STRING,
    TABLE,
    XML,
    Type,
    fun,
    fun_n,
    list_of,
    parse_type,
)

__all__ = [
    "ANY", "BOOL", "Budget", "BudgetExhausted", "CHAR", "Call",
    "ConditionalRule", "Const", "Context", "DbsOptions",
    "DbsResult", "DbsStats", "Dsl", "DslBuilder", "DslError", "DslParseError", "parse_dsl", "Env",
    "EvaluationError", "Example", "Expr", "Foreach", "ForLoop", "Function",
    "Enumerator", "Hole", "INT", "If", "Lambda", "LambdaSpec", "LasyCall",
    "LookupFunction", "LoopRule", "NtRef", "PCall", "PConst", "PVar",
    "Param", "PoolOptions", "PoolStore", "Production", "Recurse",
    "RewriteRule", "Rewriter", "STRING", "Signature", "StrategyRegistry",
    "SynthesisSession", "SynthesizedFunction", "TABLE",
    "TdsOptions", "TdsResult", "TdsSession", "TdsStep",
    "default_registry",
    "WarmTdsSession", "angelic_prune", "repair", "resynthesize", "Type", "Var", "XML",
    "contexts_of", "count_branches", "dbs", "default_budget", "fun",
    "fun_n", "list_of", "parse_rule", "parse_type", "run_program",
    "subexpressions_of", "tds", "trivial_context", "try_run",
]
