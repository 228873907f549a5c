"""Law suites for the weighted algebra.

Each law is a pointwise check over terms of one universe. Callers supply
the term tuples (exhaustive for small universes, sampled for larger ones)
as any iterable of cases and get back LawReport records with case counts
and the first few counterexamples. The suite holds one case at a time, so
full_selftest draws its sampled universes one by one and memory does not
grow with their number. An implication law is decided as `not p or q`:
its consequent is evaluated only where its premise holds. The same suites
back the unit tests, the acceptance run and the command line selftest.

The weight laws are labelled m1 through m14; these are positions in this
suite's own fixed ordering.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain, combinations, compress, islice, starmap
from operator import not_
from typing import Callable, Iterable, NamedTuple, Sequence

from . import lukasiewicz
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
    overlap,
    proper_part,
    relative_exterior,
    weight,
)

MAX_REPORTED_FAILURES = 5


class LawReport(NamedTuple):
    """A law's name, how many argument tuples it was checked on, and its
    first few counterexamples."""

    name: str
    cases: int
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


class LawCase(NamedTuple):
    """The argument tuples the laws range over, by arity: single terms,
    pairs and triples of terms, and single collections of terms."""

    terms: tuple[tuple[Term], ...]
    pairs: tuple[tuple[Term, Term], ...]
    triples: tuple[tuple[Term, Term, Term], ...]
    collections: tuple[tuple[tuple[Term, ...]], ...]


# Weight laws. Quantifiers range over non-empty terms; derived values such
# as complements and products may still be empty.

def _m1(x, y):
    return component(x, y) == is_valid(implication(x, y))

def _m2(x, y):
    return component(x, y) == (alg_product(x, y) == x)

def _m3(x, y):
    return x != y or weight(x) == weight(y)

def _m4(x, y):
    return weight(alg_sum(x, y)) == weight(x) + weight(alg_product(alg_complement(x), y))

def _m5(x, y):
    return not alg_product(x, y).is_empty or weight(alg_sum(x, y)) == weight(x) + weight(y)

def _m6(x):
    return weight(x) + weight(alg_complement(x)) == 1

def _m7(x, y):
    return weight(y) == weight(alg_product(y, x)) + weight(alg_product(y, alg_complement(x)))

def _m8(x, y):
    return weight(alg_sum(x, y)) == weight(x) + weight(y) - weight(alg_product(x, y))

def _m9(x, y):
    return not component(x, y) or weight(x) <= weight(y)

def _m10(x, y):
    return weight(x) + weight(y) != weight(alg_sum(x, y)) or alg_product(x, y).is_empty

def _m11(x, y):
    return not component(x, y) or weight(implication(x, y)) == 1

def _m12(x, y):
    return not component(x, y) or alg_product(x, alg_complement(y)).is_empty

def _m13(x, y):
    return not component(y, x) or weight(implication(x, y)) == 1 - weight(x) + weight(y)

def _m14(x, y):
    return weight(implication(x, y)) == 1 - weight(alg_product(x, alg_complement(y)))

def _m13_residuum_form(x, y):
    # With y a component of x the weight of the hook matches the
    # Lukasiewicz implication of the weights.
    return not component(y, x) or (
        weight(implication(x, y)) == min(Fraction(1), 1 - weight(x) + weight(y)))


# Part and component theorems plus symmetry facts.

def _part_irreflexive(x):
    return not proper_part(x, x)

def _component_reflexive(x):
    return component(x, x)

def _part_asymmetric(x, y):
    return not proper_part(x, y) or not proper_part(y, x)

def _component_antisymmetric(x, y):
    return not (component(x, y) and component(y, x)) or x == y

def _overlap_symmetric(x, y):
    return overlap(x, y) == overlap(y, x)

def _exterior_symmetric(x, y):
    return exterior(x, y) == exterior(y, x)

def _degree_one_iff_component(x, y):
    return (degree_of_part(x, y) == 1) == component(x, y)

def _part_transitive(x, y, z):
    return not (proper_part(x, y) and proper_part(y, z)) or proper_part(x, z)

def _component_transitive(x, y, z):
    return not (component(x, y) and component(y, z)) or component(x, z)

def _relative_exterior_symmetric(x, y, z):
    return relative_exterior(x, y, z) == relative_exterior(y, x, z)

def _degree_monotone_under_full_part(x, y, z):
    # degree(x, y) = 1 forces degree(z, y) >= degree(z, x).
    return degree_of_part(x, y) != 1 or degree_of_part(z, y) >= degree_of_part(z, x)


def _atom_components(x: Term) -> Iterable[Term]:
    """The single-atom components of x. Every non-empty component of x
    holds one of them, so they decide a law over all components of x."""
    u, mask = x
    return (Term._make((u, 1 << i)) for i in range(mask.bit_length()) if mask >> i & 1)


def _component_axiom(a, b):
    # If every non-empty component of a overlaps b then a is a component
    # of b. A component exterior to b holds an atom exterior to b.
    return any(exterior(c, b) for c in _atom_components(a)) or component(a, b)


def _class_requirement_1(collection):
    cls = class_of(collection)
    return all(component(b, cls) for b in collection)


def _class_requirement_2(collection):
    # Every component of the class overlaps some member. A component
    # overlaps a member iff one of its atoms does.
    return all(
        any(overlap(c, b) for b in collection)
        for c in _atom_components(class_of(collection))
    )


# Every law in print order: (report name, the LawCase field it ranges
# over, check). Implication laws are tautologies: each formula must denote
# the whole universe.
LAWS: Sequence[tuple[str, str, Callable[..., bool]]] = (
    ("part irreflexive", "terms", _part_irreflexive),
    ("component reflexive", "terms", _component_reflexive),
    ("m6", "terms", _m6),
    ("m1", "pairs", _m1), ("m2", "pairs", _m2), ("m3", "pairs", _m3),
    ("m4", "pairs", _m4), ("m5", "pairs", _m5), ("m7", "pairs", _m7),
    ("m8", "pairs", _m8), ("m9", "pairs", _m9), ("m10", "pairs", _m10),
    ("m11", "pairs", _m11), ("m12", "pairs", _m12), ("m13", "pairs", _m13),
    ("m14", "pairs", _m14), ("m13 residuum form", "pairs", _m13_residuum_form),
    ("part asymmetric", "pairs", _part_asymmetric),
    ("component antisymmetric", "pairs", _component_antisymmetric),
    ("overlap symmetric", "pairs", _overlap_symmetric),
    ("exterior symmetric", "pairs", _exterior_symmetric),
    ("degree one iff component", "pairs", _degree_one_iff_component),
    ("component axiom", "pairs", _component_axiom),
    ("part transitive", "triples", _part_transitive),
    ("component transitive", "triples", _component_transitive),
    ("relative exterior symmetric", "triples", _relative_exterior_symmetric),
    ("degree monotone under full part", "triples", _degree_monotone_under_full_part),
    ("implication law 1", "triples", lambda x, y, z: is_valid(
        implication(implication(x, y), implication(implication(y, z), implication(x, z))))),
    ("implication law 2", "triples", lambda x, y, z: is_valid(
        implication(alg_product(x, y), x))),
    ("implication law 3", "triples", lambda x, y, z: is_valid(
        implication(alg_product(x, y), alg_product(y, x)))),
    ("implication law 4", "triples", lambda x, y, z: is_valid(implication(
        alg_product(x, implication(x, y)), alg_product(y, implication(y, x))))),
    ("implication law 5", "triples", lambda x, y, z: is_valid(
        implication(implication(x, implication(y, z)), implication(alg_product(x, y), z)))),
    ("implication law 6", "triples", lambda x, y, z: is_valid(
        implication(implication(alg_product(x, y), z), implication(x, implication(y, z))))),
    ("implication law 7", "triples", lambda x, y, z: is_valid(implication(
        implication(implication(x, y), z),
        implication(implication(implication(y, x), z), z)))),
    ("class requirement 1", "collections", _class_requirement_1),
    ("class requirement 2", "collections", _class_requirement_2),
)


def _counterexample(field_name: str, args: tuple) -> str:
    if field_name == "collections":
        return f"B={[repr(t) for t in args[0]]}"
    return " ".join(f"{name}={arg!r}" for name, arg in zip("xyz", args))


def _run_table(
    table: Sequence[tuple[str, str, Callable[..., bool]]],
    cases: Iterable,
    describe: Callable[[str, tuple], str],
) -> list[LawReport]:
    """One report per row of table, in table order.

    A row is (name, field, check): check is called with each argument tuple
    in that field of every case, every one of them, and an exception it
    raises propagates. describe(field, args) writes out a failing tuple, and
    only while the report has room for another counterexample.
    """
    counts = [0] * len(table)
    failures = [[] for _ in table]
    for case in cases:
        for i, (_, field_name, check) in enumerate(table):
            arguments = getattr(case, field_name)
            counts[i] += len(arguments)
            verdicts = list(starmap(check, arguments))
            if not all(verdicts):
                failing = compress(arguments, map(not_, verdicts))
                room = MAX_REPORTED_FAILURES - len(failures[i])
                failures[i] += [describe(field_name, args) for args in islice(failing, room)]
    return [LawReport(name, n, found)
            for (name, _, _), n, found in zip(table, counts, failures)]


def run_law_suite(cases: Iterable[LawCase]) -> list[LawReport]:
    """Accumulate every law over every case, one report per law."""
    return _run_table(LAWS, cases, _counterexample)


def exhaustive_case(universe: WeightedUniverse) -> LawCase:
    """All non-empty terms with full pair and triple products.

    Collections cover every singleton and every unordered pair of terms.
    Intended for universes of at most five atoms.
    """
    terms = tuple(universe.all_terms())
    return LawCase(
        tuple((x,) for x in terms),
        tuple((x, y) for x in terms for y in terms),
        tuple((x, y, z) for x in terms for y in terms for z in terms),
        tuple(((t,),) for t in terms) + tuple(((x, y),) for x, y in combinations(terms, 2)),
    )


def sampled_case(universe: WeightedUniverse, rng: random.Random) -> LawCase:
    """Four random terms, four pairs, four triples and two collections of
    one to three terms, drawn from rng in that order."""
    atoms = universe.atoms
    # bit i stands for atoms[i]; sampled in the order of the atoms' reprs
    bits = [1 << i for i in sorted(range(len(atoms)), key=lambda i: repr(atoms[i]))]

    def pick() -> Term:
        size = rng.randint(1, len(bits))
        return Term._make((universe, sum(rng.sample(bits, size))))

    # tuples from lists, not generators: a tuple grown from a generator is
    # resized past the tuple free lists yet freed onto them, so they would grow
    return LawCase(
        tuple([(pick(),) for _ in range(4)]),
        tuple([(pick(), pick()) for _ in range(4)]),
        tuple([(pick(), pick(), pick()) for _ in range(4)]),
        tuple([(tuple([pick() for _ in range(rng.randint(1, 3))]),) for _ in range(2)]),
    )


def random_universe(rng: random.Random, max_atoms: int) -> WeightedUniverse:
    """Random atom count in [2, max_atoms] with exact normalised weights."""
    n = rng.randint(2, max_atoms)
    masses = {i: rng.randint(1, 9) for i in range(n)}
    return WeightedUniverse.from_counts(masses)


def full_selftest(
    atoms: int, random_universes: int, max_atoms: int, seed: int
) -> list[LawReport]:
    """Algebra laws plus the t-norm suite on the 1/64 grid, as one flat
    report list. A count outside its range is a usage error."""
    if not 2 <= atoms <= 5:
        raise UsageError(f"atoms must lie in 2..5 for exhaustive checking, not {atoms}")
    if random_universes < 0:
        raise UsageError(f"random_universes must not be negative, not {random_universes}")
    if max_atoms < 2:
        raise UsageError(f"max_atoms must be at least 2, not {max_atoms}")
    rng = random.Random(seed)
    # each case is built when the suite asks for it and freed once checked
    sampled = (sampled_case(random_universe(rng, max_atoms), rng)
               for _ in range(random_universes))
    universe = WeightedUniverse.uniform(range(1, atoms + 1))
    reports = run_law_suite(chain([exhaustive_case(universe)], sampled))

    violation = lukasiewicz.check_t_norm(lukasiewicz.t_norm).violation
    failures = [] if violation is None else [f"{violation.condition} at {violation.point}"]
    reports.append(LawReport("t-norm contract", 1, failures))
    reports.extend(lukasiewicz.formula_identities())
    return reports
