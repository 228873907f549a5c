import itertools

import pytest
from oracle import find_model_reference

from mereovc.errors import DomainError, PremissSyntaxError, UnknownMoodError
from mereovc.syllogistic import (
    EulerModel,
    Mood,
    Premiss,
    catalog_names,
    enumerate_moods,
    evaluate_premiss,
    find_model,
    is_valid_mood,
    lookup_mood,
    parse_mood,
    parse_premiss,
)


class TestParsing:
    def test_compact_form(self):
        p = parse_premiss("Amb")
        assert (p.quantifier, p.subject, p.predicate) == ("A", "m", "b")

    def test_compact_rejects_bad_quantifier(self):
        with pytest.raises(PremissSyntaxError) as err:
            parse_premiss("Xab")
        assert err.value.position == 0

    def test_compact_rejects_bad_term(self):
        with pytest.raises(PremissSyntaxError) as err:
            parse_premiss("A1b")
        assert err.value.position == 1

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("All men are mortal", ("A", "men", "mortal")),
            ("some cats are black", ("I", "cats", "black")),
            ("Some cats is not black", ("O", "cats", "black")),
            ("No fish is fowl", ("E", "fish", "fowl")),
            ("Some cats are not black", ("O", "cats", "black")),
        ],
    )
    def test_english_forms(self, text, expected):
        p = parse_premiss(text)
        assert (p.quantifier, p.subject, p.predicate) == expected

    def test_unparseable_premiss(self):
        with pytest.raises(PremissSyntaxError):
            parse_premiss("every cat is nice or so")

    def test_parse_mood_ascii_and_unicode(self):
        m1 = parse_mood("Amb & Aam -> Aab")
        m2 = parse_mood("Amb ∧ Aam ⊃ Aab")
        assert m1 == m2
        assert m1.conclusion.as_text() == "Aab"

    def test_parse_mood_needs_arrow(self):
        with pytest.raises(PremissSyntaxError, match="arrow"):
            parse_mood("Amb & Aam")

    def test_parse_mood_needs_two_premisses(self):
        with pytest.raises(PremissSyntaxError):
            parse_mood("Amb -> Aab")
        with pytest.raises(PremissSyntaxError):
            parse_mood("Amb & Aam & Abm -> Aab")

    def test_mood_scheme_is_enforced(self):
        # conclusion must relate a to b, middle term in both premisses
        with pytest.raises(PremissSyntaxError):
            parse_mood("Amb & Aam -> Aba")
        with pytest.raises(PremissSyntaxError):
            parse_mood("Aab & Aam -> Aab")
        with pytest.raises(DomainError):
            Mood(Premiss("A", "m", "b"), Premiss("A", "m", "b"), Premiss("A", "a", "b"))


class TestModels:
    def model(self, **assignment):
        return EulerModel({k: frozenset(v) for k, v in assignment.items()})

    def test_evaluate_each_quantifier(self):
        m = self.model(s={0, 1}, p={1, 2})
        assert evaluate_premiss(Premiss("I", "s", "p"), m)
        assert evaluate_premiss(Premiss("O", "s", "p"), m)
        assert not evaluate_premiss(Premiss("A", "s", "p"), m)
        assert not evaluate_premiss(Premiss("E", "s", "p"), m)
        inside = self.model(s={1}, p={1, 2})
        assert evaluate_premiss(Premiss("A", "s", "p"), inside)

    def test_unassigned_term(self):
        with pytest.raises(DomainError, match="not assigned"):
            evaluate_premiss(Premiss("A", "s", "q"), self.model(s={0}))

    def test_terms_have_existential_import(self):
        # I(t, t) holds in every model because terms are never empty
        for cells in [{0}, {3, 5}, set(range(7))]:
            m = self.model(a=cells)
            assert evaluate_premiss(Premiss("I", "a", "a"), m)
        with pytest.raises(DomainError, match="empty"):
            self.model(a=set())

    def test_find_model_satisfies_input(self):
        premisses = [Premiss("A", "a", "m"), Premiss("E", "m", "b")]
        model = find_model(premisses)
        assert model is not None
        assert all(evaluate_premiss(p, model) for p in premisses)

    def test_contradiction_has_no_model(self):
        assert find_model([Premiss("A", "a", "b"), Premiss("O", "a", "b")]) is None
        assert find_model([Premiss("I", "a", "b"), Premiss("E", "a", "b")]) is None

    def test_find_model_rejects_foreign_symbols(self):
        with pytest.raises(DomainError):
            find_model([Premiss("A", "x", "y")])


class TestValidity:
    def test_barbara(self):
        assert is_valid_mood(parse_mood("Amb & Aam -> Aab")).valid

    def test_barbari_needs_existential_import(self):
        # the subaltern conclusion holds precisely because terms are non-empty
        assert is_valid_mood(parse_mood("Amb & Aam -> Iab")).valid

    @pytest.mark.parametrize("bad", ["Abm & Aam -> Iab", "Ebm & Eam -> Iab"])
    def test_rejected_strengthenings(self, bad):
        verdict = is_valid_mood(parse_mood(bad))
        assert not verdict.valid
        assert verdict.countermodel is not None

    def test_countermodels_actually_refute(self):
        """Every invalid mood's countermodel satisfies the premisses and
        falsifies the conclusion."""
        for entry in enumerate_moods():
            if entry.valid:
                continue
            mood = entry.mood
            counter = is_valid_mood(mood).countermodel
            assert evaluate_premiss(mood.premiss1, counter)
            assert evaluate_premiss(mood.premiss2, counter)
            assert not evaluate_premiss(mood.conclusion, counter)


class TestCatalog:
    def test_shape_of_enumeration(self):
        entries = enumerate_moods()
        assert len(entries) == 256
        for figure in (1, 2, 3, 4):
            assert sum(1 for e in entries if e.figure == figure) == 64

    def test_exactly_24_valid_and_all_named(self):
        entries = enumerate_moods()
        valid = [e for e in entries if e.valid]
        assert len(valid) == 24
        assert {e.name for e in valid} == set(catalog_names())
        for e in entries:
            assert (e.name is not None) == e.valid

    def test_lookup_is_case_insensitive(self):
        mood = lookup_mood("bArBaRa")
        assert mood.as_text() == "Amb & Aam -> Aab"
        with pytest.raises(UnknownMoodError):
            lookup_mood("Barbapapa")

    def test_every_catalog_name_is_valid(self):
        for name in catalog_names():
            assert is_valid_mood(lookup_mood(name)).valid, name


_PREMISSES = [Premiss(q, s, p) for q in "AIEO" for s in "abm" for p in "abm" if s != p]
_BITS = {"a": 1, "b": 2, "m": 4}


def test_every_model_found_is_a_venn_pattern_satisfying_its_premisses():
    """Over all sets of one to three premisses: a returned model satisfies
    every premiss, gives every mentioned term a non-empty extent, and each
    cell c it uses lies in exactly the mentioned terms whose bits are set
    in c + 1."""
    for k in (1, 2, 3):
        for premisses in itertools.combinations(_PREMISSES, k):
            model = find_model(premisses)
            if model is None:
                continue
            mentioned = set().union(*(p.terms for p in premisses))
            assert set(model.assignment) == mentioned
            assert all(model.assignment.values())
            assert all(evaluate_premiss(p, model) for p in premisses)
            for cell in set().union(*model.assignment.values()):
                holders = {t for t, cells in model.assignment.items() if cell in cells}
                assert holders == {t for t in mentioned if cell + 1 & _BITS[t]}


def test_find_model_equals_the_premiss_by_premiss_search():
    """Every tuple of one to three premisses over a, b, m, in every order
    and with repeats: 24 + 576 + 13,824 searches, each returning the same
    model or None."""
    searched = found = 0
    for k in (1, 2, 3):
        for premisses in itertools.product(_PREMISSES, repeat=k):
            model = find_model(premisses)
            assert model == find_model_reference(premisses), premisses
            searched += 1
            found += model is not None
    assert searched == 24 + 576 + 13_824
    assert 0 < found < searched
