"""Law suites for the weighted algebra.

Each law is a pointwise check over terms of one universe. Callers supply
the term tuples (exhaustive for small universes, sampled for larger ones)
and get back LawReport records with case counts and the first few
counterexamples. The same suites back the unit tests, the acceptance run
and the command line selftest.

The weight laws are labelled m1 through m14; these are positions in this
suite's own fixed ordering.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .errors import UsageError
from .mereology import (
    Term,
    WeightedUniverse,
    alg_complement,
    alg_product,
    alg_sum,
    class_of,
    component,
    degree_of_part,
    exterior,
    implication,
    is_valid,
    nonempty_subsets,
    overlap,
    proper_part,
    relative_exterior,
    weight,
)

MAX_REPORTED_FAILURES = 5


@dataclass
class LawReport:
    name: str
    cases: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, passed: bool, context: str) -> None:
        self.cases += 1
        if not passed and len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append(context)


@dataclass(frozen=True)
class LawCase:
    """One universe with the term tuples the laws will range over."""

    universe: WeightedUniverse
    terms: tuple[Term, ...]
    pairs: tuple[tuple[Term, Term], ...]
    triples: tuple[tuple[Term, Term, Term], ...]
    collections: tuple[tuple[Term, ...], ...]


def _implies(p: bool, q: bool) -> bool:
    return (not p) or q


# Weight laws. Quantifiers range over non-empty terms; derived values such
# as complements and products may still be empty.

def _m1(x, y):
    return component(x, y) == is_valid(implication(x, y))

def _m2(x, y):
    return component(x, y) == (alg_product(x, y) == x)

def _m3(x, y):
    return _implies(x == y, weight(x) == weight(y))

def _m4(x, y):
    return weight(alg_sum(x, y)) == weight(x) + weight(alg_product(alg_complement(x), y))

def _m5(x, y):
    return _implies(
        alg_product(x, y).is_empty,
        weight(alg_sum(x, y)) == weight(x) + weight(y),
    )

def _m6(x):
    return weight(x) + weight(alg_complement(x)) == 1

def _m7(x, y):
    return weight(y) == weight(alg_product(y, x)) + weight(alg_product(y, alg_complement(x)))

def _m8(x, y):
    return weight(alg_sum(x, y)) == weight(x) + weight(y) - weight(alg_product(x, y))

def _m9(x, y):
    return _implies(component(x, y), weight(x) <= weight(y))

def _m10(x, y):
    return _implies(
        weight(x) + weight(y) == weight(alg_sum(x, y)),
        alg_product(x, y).is_empty,
    )

def _m11(x, y):
    return _implies(component(x, y), weight(implication(x, y)) == 1)

def _m12(x, y):
    return _implies(component(x, y), alg_product(x, alg_complement(y)).is_empty)

def _m13(x, y):
    return _implies(
        component(y, x),
        weight(implication(x, y)) == 1 - weight(x) + weight(y),
    )

def _m14(x, y):
    return weight(implication(x, y)) == 1 - weight(alg_product(x, alg_complement(y)))

def _m13_residuum_form(x, y):
    # With y a component of x the weight of the hook matches the
    # Lukasiewicz implication of the weights.
    return _implies(
        component(y, x),
        weight(implication(x, y)) == min(Fraction(1), 1 - weight(x) + weight(y)),
    )


WEIGHT_PAIR_LAWS: Sequence[tuple[str, Callable]] = (
    ("m1", _m1), ("m2", _m2), ("m3", _m3), ("m4", _m4), ("m5", _m5),
    ("m7", _m7), ("m8", _m8), ("m9", _m9), ("m10", _m10), ("m11", _m11),
    ("m12", _m12), ("m13", _m13), ("m14", _m14),
    ("m13 residuum form", _m13_residuum_form),
)


# Part and component theorems plus symmetry facts.

def _part_irreflexive(x):
    return not proper_part(x, x)

def _component_reflexive(x):
    return component(x, x)

def _part_asymmetric(x, y):
    return _implies(proper_part(x, y), not proper_part(y, x))

def _component_antisymmetric(x, y):
    return _implies(component(x, y) and component(y, x), x == y)

def _overlap_symmetric(x, y):
    return overlap(x, y) == overlap(y, x)

def _exterior_symmetric(x, y):
    return exterior(x, y) == exterior(y, x)

def _degree_one_iff_component(x, y):
    return (degree_of_part(x, y) == 1) == component(x, y)

def _part_transitive(x, y, z):
    return _implies(proper_part(x, y) and proper_part(y, z), proper_part(x, z))

def _component_transitive(x, y, z):
    return _implies(component(x, y) and component(y, z), component(x, z))

def _relative_exterior_symmetric(x, y, z):
    return relative_exterior(x, y, z) == relative_exterior(y, x, z)

def _degree_monotone_under_full_part(x, y, z):
    # degree(x, y) = 1 forces degree(z, y) >= degree(z, x).
    return _implies(
        degree_of_part(x, y) == 1,
        degree_of_part(z, y) >= degree_of_part(z, x),
    )


UNARY_THEOREMS: Sequence[tuple[str, Callable]] = (
    ("part irreflexive", _part_irreflexive),
    ("component reflexive", _component_reflexive),
    ("m6", _m6),
)

PAIR_THEOREMS: Sequence[tuple[str, Callable]] = (
    ("part asymmetric", _part_asymmetric),
    ("component antisymmetric", _component_antisymmetric),
    ("overlap symmetric", _overlap_symmetric),
    ("exterior symmetric", _exterior_symmetric),
    ("degree one iff component", _degree_one_iff_component),
)

TRIPLE_THEOREMS: Sequence[tuple[str, Callable]] = (
    ("part transitive", _part_transitive),
    ("component transitive", _component_transitive),
    ("relative exterior symmetric", _relative_exterior_symmetric),
    ("degree monotone under full part", _degree_monotone_under_full_part),
)


# Implication tautologies. Every formula must denote the whole universe.

def _law_terms(x, y, z):
    imp = implication
    prod = alg_product
    return (
        imp(imp(x, y), imp(imp(y, z), imp(x, z))),
        imp(prod(x, y), x),
        imp(prod(x, y), prod(y, x)),
        imp(prod(x, imp(x, y)), prod(y, imp(y, x))),
        imp(imp(x, imp(y, z)), imp(prod(x, y), z)),
        imp(imp(prod(x, y), z), imp(x, imp(y, z))),
        imp(imp(imp(x, y), z), imp(imp(imp(y, x), z), z)),
    )


IMPLICATION_LAW_NAMES = tuple(f"implication law {i}" for i in range(1, 8))


def _component_axiom(a, b):
    # If every non-empty component of a overlaps b then a is a component
    # of b. Overlapping b is the same as overlapping some component of b.
    for m in nonempty_subsets(a):
        if exterior(m, b):
            return True
    return component(a, b)


COMPONENT_SAMPLE = 300


def _component_sample(term: Term, seed_salt: str):
    """Non-empty components of a term, exhaustive when cheap enough."""
    if len(term.members) <= 8:
        yield from nonempty_subsets(term)
        return
    rng = random.Random(f"{seed_salt}:{sorted(term.members, key=repr)!r}")
    atoms = sorted(term.members, key=repr)
    for _ in range(COMPONENT_SAMPLE):
        size = rng.randint(1, len(atoms))
        yield term.universe.term(rng.sample(atoms, size))


def _class_requirement_1(collection):
    cls = class_of(collection)
    return all(component(b, cls) for b in collection)


def _class_requirement_2(collection):
    cls = class_of(collection)
    for c in _component_sample(cls, "classreq"):
        if not any(overlap(c, b) for b in collection):
            return False
    return True


def run_law_suite(cases: Iterable[LawCase]) -> list[LawReport]:
    """Accumulate every law over every case, one report per law."""
    names = (
        [n for n, _ in UNARY_THEOREMS]
        + [n for n, _ in WEIGHT_PAIR_LAWS]
        + [n for n, _ in PAIR_THEOREMS]
        + ["component axiom"]
        + [n for n, _ in TRIPLE_THEOREMS]
        + list(IMPLICATION_LAW_NAMES)
        + ["class requirement 1", "class requirement 2"]
    )
    reports = {name: LawReport(name) for name in names}

    for case in cases:
        for x in case.terms:
            ctx = f"x={x!r}"
            for name, law in UNARY_THEOREMS:
                reports[name].check(law(x), ctx)
        for x, y in case.pairs:
            ctx = f"x={x!r} y={y!r}"
            for name, law in WEIGHT_PAIR_LAWS:
                reports[name].check(law(x, y), ctx)
            for name, law in PAIR_THEOREMS:
                reports[name].check(law(x, y), ctx)
            reports["component axiom"].check(_component_axiom(x, y), ctx)
        for x, y, z in case.triples:
            ctx = f"x={x!r} y={y!r} z={z!r}"
            for name, law in TRIPLE_THEOREMS:
                reports[name].check(law(x, y, z), ctx)
            for name, term in zip(IMPLICATION_LAW_NAMES, _law_terms(x, y, z)):
                reports[name].check(is_valid(term), ctx)
        for collection in case.collections:
            ctx = f"B={[repr(t) for t in collection]}"
            reports["class requirement 1"].check(_class_requirement_1(collection), ctx)
            reports["class requirement 2"].check(_class_requirement_2(collection), ctx)
    return [reports[name] for name in names]


def exhaustive_case(universe: WeightedUniverse) -> LawCase:
    """All non-empty terms with full pair and triple products.

    Collections cover every singleton and every unordered pair of terms.
    Intended for universes of at most five atoms.
    """
    terms = tuple(universe.all_terms())
    pairs = tuple((x, y) for x in terms for y in terms)
    triples = tuple((x, y, z) for x in terms for y in terms for z in terms)
    collections = tuple((t,) for t in terms) + tuple(
        (x, y) for x, y in combinations(terms, 2)
    )
    return LawCase(universe, terms, pairs, triples, collections)


def sampled_case(universe: WeightedUniverse, rng: random.Random) -> LawCase:
    """Four random terms, four pairs, four triples and two collections of
    one to three terms, drawn from rng in that order."""
    atoms = sorted(universe.atoms, key=repr)

    def pick() -> Term:
        size = rng.randint(1, len(atoms))
        return universe.term(rng.sample(atoms, size))

    terms = tuple(pick() for _ in range(4))
    pair_tuples = tuple((pick(), pick()) for _ in range(4))
    triple_tuples = tuple((pick(), pick(), pick()) for _ in range(4))
    coll_tuples = tuple(tuple(pick() for _ in range(rng.randint(1, 3))) for _ in range(2))
    return LawCase(universe, terms, pair_tuples, triple_tuples, coll_tuples)


def random_universe(rng: random.Random, max_atoms: int = 10) -> WeightedUniverse:
    """Random atom count in [2, max_atoms] with exact normalised weights."""
    n = rng.randint(2, max_atoms)
    masses = {i: rng.randint(1, 9) for i in range(n)}
    return WeightedUniverse.from_counts(masses)


def full_selftest(
    atoms: int = 4,
    random_universes: int = 100,
    max_atoms: int = 10,
    seed: int = 0,
) -> list[LawReport]:
    """Algebra laws plus the t-norm suite on the 1/64 grid, as one flat
    report list. A count outside its range is a usage error."""
    from .lukasiewicz import check_t_norm, formula_identities, t_norm

    if not 2 <= atoms <= 5:
        raise UsageError(f"atoms must lie in 2..5 for exhaustive checking, not {atoms}")
    if random_universes < 0:
        raise UsageError(f"random_universes must not be negative, not {random_universes}")
    if max_atoms < 2:
        raise UsageError(f"max_atoms must be at least 2, not {max_atoms}")
    rng = random.Random(seed)
    cases = [exhaustive_case(WeightedUniverse.uniform(range(1, atoms + 1)))]
    for _ in range(random_universes):
        cases.append(sampled_case(random_universe(rng, max_atoms), rng))
    reports = run_law_suite(cases)

    tnorm_report = LawReport("t-norm contract")
    outcome = check_t_norm(t_norm)
    tnorm_report.check(
        outcome.ok,
        "no violation" if outcome.ok else f"{outcome.violation.condition} at {outcome.violation.point}",
    )
    reports.append(tnorm_report)
    reports.extend(formula_identities())
    return reports
