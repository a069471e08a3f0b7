"""Relations between inputs that need no reference: renaming the letters of
a word changes no dynamics, so it must change no verdict, and a coding of
T read backwards is a coding of T^-1, whose letter orders are T's swapped."""
import pytest

from ietword.orders import search_orders
from ietword.rauzy import validate_evolution
from ietword.words import FactorSet

from corpus import levels_corpus


def renaming_of(word: str, renaming: str) -> dict:
    """The map reversing word's sorted alphabet, or shifting it one place."""
    letters = sorted(set(word))
    image = letters[::-1] if renaming == "reverse" else letters[1:] + letters[:1]
    return dict(zip(letters, image))


def renamed(word: str, renaming: str) -> str:
    return word.translate(str.maketrans(renaming_of(word, renaming)))


def outcome(word: str, k_max: int, oriented: bool):
    """What a renaming or a reversal keeps: verdict, K, witness kind and
    whether any mark appears; labels and witness factors change with the
    word."""
    r = validate_evolution(FactorSet(word, k_max + 1), 1, k_max, oriented)
    return (r.verdict, r.K, r.witness.kind if r.witness else None,
            any((r.marks or {}).values()))


@pytest.mark.parametrize("renaming", ["reverse", "shift"])
def test_validator_ignores_letter_names(renaming):
    seen, moved = set(), 0
    for word, k_max in levels_corpus():
        other = renamed(word, renaming)
        moved += other != word
        for oriented in (False, True):
            want = outcome(word, k_max, oriented)
            assert outcome(other, k_max, oriented) == want, (word, k_max, oriented)
            seen.add(want[2] or want[0])
            seen.add(want[3])
    # the corpus reaches both acceptances, four kinds of rejection, and
    # marks; only one-letter words map to themselves
    assert moved > 100
    assert seen == {"accepted", "accepted-from-K", "valence", "strong-bispecial",
                    "label-contradiction", "complexity", True, False}


def test_validator_reads_a_reversed_word_alike():
    """A word read backwards is a coding of T^-1, so reversal keeps the
    verdict, K, witness kind and whether any mark appears, in both modes."""
    for word, k_max in levels_corpus():
        for oriented in (False, True):
            assert outcome(word[::-1], k_max, oriented) == outcome(word, k_max, oriented), \
                (word, k_max, oriented)


def passing(word: str, k_max: int):
    """The (pi0, pi1) pairs search_orders passes on word's index to k_max
    + 1, checked to length k_max - 1, or None when a guard refuses the
    word's alphabet."""
    try:
        pairs = search_orders(FactorSet(word, k_max + 1), k_max - 1)
    except ValueError:
        return None
    return {(p.pi0, p.pi1) for p in pairs}


def test_order_search_follows_renaming_and_reversal():
    """Renaming maps each passing pair letter by letter; reversal swaps
    the domain and image orders of each."""
    found = 0
    for word, k_max in levels_corpus():
        pairs = passing(word, k_max)
        if pairs is None:
            continue
        found += bool(pairs)
        for renaming in ("reverse", "shift"):
            f = renaming_of(word, renaming)
            assert passing(renamed(word, renaming), k_max) == {
                (tuple(map(f.get, pi0)), tuple(map(f.get, pi1))) for pi0, pi1 in pairs}, \
                (word, k_max, renaming)
        assert passing(word[::-1], k_max) == {(pi1, pi0) for pi0, pi1 in pairs}, (word, k_max)
    assert found
