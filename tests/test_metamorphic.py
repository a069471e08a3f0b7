"""Relations between inputs that need no reference: renaming the letters of
a word changes no dynamics, so it must change no verdict."""
import pytest

from ietword.rauzy import validate_evolution
from ietword.words import FactorSet

from corpus import levels_corpus


def renamed(word: str, renaming: str) -> str:
    """word with its sorted alphabet reversed, or shifted one place."""
    letters = sorted(set(word))
    image = letters[::-1] if renaming == "reverse" else letters[1:] + letters[:1]
    return word.translate(str.maketrans(dict(zip(letters, image))))


def outcome(word: str, k_max: int, oriented: bool):
    """What a renaming keeps: verdict, K, witness kind and whether any
    mark appears; labels and witness factors are renamed with the word."""
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
