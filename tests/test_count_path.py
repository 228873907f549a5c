"""The count path against the descriptor-set route it replaced.

run_trial reads each agent's touching size as its agreement count with
omega and its VC dimension from vc_count, with ground size F+1 for an
inconsistent table. The old route repaired such a table with a decision
copy column, gave omega a value there that no row holds, and took VC from
explicit descriptor sets. These tests run the old route with the
brute-force oracle and require the same numbers, and check the
closed-form shattering test behind vc_count set by set against the
brute-force shattering check.
"""

import random
from fractions import Fraction

import pytest

from mereovc.predict import PredictionConfig, run_trial
from mereovc.tables import DecisionSystem, consistentize, is_consistent
from mereovc.vc import _split_shattered, touching_set, vc_count, vc_of_object
from oracle import ComponentFamily, extended, shatters_bruteforce, vc_dimension_bruteforce

EPSILONS = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)]
MODES = ["exact", "at_least"]


def random_table(rng, features, duplicate_rows):
    """Up to six rows of two-valued cells; copied rows give a clash when
    their decisions differ."""
    rows = [tuple(rng.choice("ab") for _ in features) for _ in range(rng.randint(1, 4))]
    rows += [rng.choice(rows) for _ in range(duplicate_rows)]
    decisions = [rng.randint(0, 3) for _ in rows]
    return DecisionSystem.from_rows(features, rows, decisions)


def tables():
    rng = random.Random(2024)
    out = []
    for n_features in range(1, 6):
        names = tuple(f"f{i}" for i in range(n_features))
        for duplicate_rows in (0, 2):
            for _ in range(4):
                out.append(random_table(rng, names, duplicate_rows))
    # a feature named like the old synthetic column, in an inconsistent table
    out.append(
        DecisionSystem.from_rows(("x", "d"), [("a", "b"), ("a", "b"), ("c", "b")], [1, 2, 3])
    )
    return out


def old_route(system, omega, epsilon, mode):
    """(touching size, VC) per object via the repaired table and descriptor sets."""
    if not is_consistent(system):
        fresh = "d"
        while fresh in system.features:
            fresh += "'"
        system = consistentize(system, fresh)
        omega = extended(omega, fresh, object())
    out = []
    for o in system.objects:
        touch = touching_set(system, o, omega)
        family = ComponentFamily(frozenset(system.row(o).items()), touch, epsilon, mode)
        out.append((len(touch), vc_dimension_bruteforce(family)))
    return out


def test_tables_cover_both_cases():
    kinds = [is_consistent(s) for s in tables()]
    assert any(kinds) and not all(kinds)
    assert any("d" in s.features and not is_consistent(s) for s in tables())


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("epsilon", EPSILONS, ids=str)
def test_build_trial_matches_the_descriptor_set_route(epsilon, mode):
    config = PredictionConfig(epsilon=epsilon, mode=mode)
    for system in tables():
        # every row as omega, plus one that agrees with no row anywhere
        omegas = [system.row(o) for o in system.objects]
        omegas.append({f: "z" for f in system.features})
        for omega in omegas:
            want = old_route(system, omega, epsilon, mode)
            trial = run_trial(system, omega, config=config)
            got = list(zip(trial.touching_sizes, trial.vcs))
            assert got == want, (system.features, system.rows, omega)
            # the public per-row function reads the same ground size
            got = [
                (t, vc_of_object(system, o, omega, epsilon, mode))
                for o, t in zip(trial.objects, trial.touching_sizes)
            ]
            assert got == want, (system.features, system.rows, omega)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("epsilon", EPSILONS + [Fraction(2, 5), Fraction(3, 5)], ids=str)
def test_vc_count_matches_bruteforce(epsilon, mode):
    for ground_size in range(8):
        ground = [(f"f{i}", "v") for i in range(ground_size)]
        for touching_size in range(ground_size + 1):
            family = ComponentFamily(
                frozenset(ground), frozenset(ground[:touching_size]), epsilon, mode
            )
            assert vc_count(ground_size, touching_size, epsilon, mode) == (
                vc_dimension_bruteforce(family)
            ), (ground_size, touching_size)


# p/(p+q) with p, q >= 2 reaches the u >= p-1 and v >= q-1 clauses
SPLIT_EPSILONS = [
    Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(2, 5), Fraction(1, 2),
    Fraction(3, 5), Fraction(2, 3), Fraction(3, 4), Fraction(1),
]


@pytest.mark.parametrize("mode", MODES)
def test_split_test_matches_shatters(mode):
    checked = 0
    for ground_size in range(9):
        ground = [(f"f{i}", "v") for i in range(ground_size)]
        for touching_size in range(ground_size + 1):
            touching, rest = ground[:touching_size], ground[touching_size:]
            for epsilon in SPLIT_EPSILONS:
                family = ComponentFamily(frozenset(ground), frozenset(touching), epsilon, mode)
                for s1 in range(touching_size + 1):
                    for s0 in range(len(rest) + 1):
                        if s1 == s0 == 0:
                            continue
                        s = frozenset(touching[:s1] + rest[:s0])
                        got = _split_shattered(
                            s1, s0, touching_size - s1, len(rest) - s0, epsilon, mode
                        )
                        assert got == shatters_bruteforce(family, s), (
                            ground_size, touching_size, s1, s0, epsilon)
                        checked += 1
    assert checked == 4050
