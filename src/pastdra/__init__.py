"""Translation of linear temporal logic with past to deterministic
generalized Rabin automata, and from those to Rabin automata, with exact
lasso-word semantics to check it against."""

from .formula import Formula, ParseError, parse
from .lasso import LassoWord, holds, parse_word
from .automata import (OmegaAutomaton, StateLimitExceeded, accepts,
                       degeneralize)
from .translate import TranslationContext, translate, translation_stats
from .hoa import export_dot, export_hoa, parse_hoa

__all__ = [
    "Formula", "ParseError", "parse",
    "LassoWord", "holds", "parse_word",
    "OmegaAutomaton", "StateLimitExceeded", "accepts", "degeneralize",
    "TranslationContext", "translate", "translation_stats",
    "export_dot", "export_hoa", "parse_hoa",
]

__version__ = "0.1.0"
