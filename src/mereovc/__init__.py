"""mereovc: decision prediction over rough-set tables.

Rows of a decision table act as a panel of experts. Against a new object,
each row's competence is the VC dimension of the family of descriptor
sets that include, to a fixed rational degree, into the set of
descriptors it shares with the new object. Competence buys forecast
neighborhoods, an expert signal rewards the agents whose neighborhood
covers it, and the panel localizes the expert value by shrinking radii.

The supporting mathematics ships alongside: a weighted part-whole algebra
over finite atom sets with exact rational degrees, the many-valued
operators used to propagate degrees through connectives, and a decision
procedure for the classical syllogistic over Euler-diagram models.
"""

from .errors import (
    DecisionParseError,
    DomainError,
    EmptyTermError,
    InputError,
    MereovcError,
    PremissSyntaxError,
    SchemaError,
    StructuralError,
    UndefinedDegreeError,
    UniverseMismatchError,
    UnknownMoodError,
    UsageError,
)
from .lukasiewicz import check_t_norm, propagate
from .mereology import Term, WeightedUniverse, degree_of_part
from .mistakes import LocalizationResult, MistakeLedger, count_mistakes, localize
from .predict import (
    PredictionConfig,
    TrialResult,
    leave_one_out,
    run_trial,
)
from .syllogistic import Mood, Premiss, enumerate_moods, is_valid_mood, parse_mood
from .tables import (
    DecisionSystem,
    consistentize,
    indiscernibility_class,
    is_consistent,
    load_decision_system,
)
from .vc import vc_of_object

__version__ = "0.1.0"

__all__ = [
    "DecisionParseError",
    "DecisionSystem",
    "DomainError",
    "EmptyTermError",
    "InputError",
    "LocalizationResult",
    "MereovcError",
    "MistakeLedger",
    "Mood",
    "PredictionConfig",
    "Premiss",
    "PremissSyntaxError",
    "SchemaError",
    "StructuralError",
    "Term",
    "TrialResult",
    "UndefinedDegreeError",
    "UniverseMismatchError",
    "UnknownMoodError",
    "UsageError",
    "WeightedUniverse",
    "check_t_norm",
    "consistentize",
    "count_mistakes",
    "degree_of_part",
    "enumerate_moods",
    "indiscernibility_class",
    "is_consistent",
    "is_valid_mood",
    "leave_one_out",
    "load_decision_system",
    "localize",
    "parse_mood",
    "propagate",
    "run_trial",
    "vc_of_object",
]
