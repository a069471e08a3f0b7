"""Every family of tests/corpus.py, pinned by a sha256 of its value.

Each key of PINNED is a call in the corpus module: a family at the
arguments the tests use, a builder at seeds of its own. A re-seeded or
otherwise changed draw fails here. Sets are written sorted, so the text
does not follow string hashing.
"""
import hashlib

from ietword.exact import ExactScalar
from ietword.iet import IETSpec

import corpus

PINNED = {
    "GOLDEN_ALPHA": "d6e13fdb7e50b946b1e9ccc192760844d6fd6b894b1e4cae61a3312e5a87eee8",
    "GOLDEN_CFG": "e09c6dcb610a326920a019197f826913240f565e1e6dc26ccf4da39f040549c6",
    "golden_iet()": "9ec3a1bcdd9e64db2d8ffa169399e768c4830fd9f571b28ed80c9158827f731a",
    "silver_iet()": "3a6955aee96239b3b9d1620da335ff2651167adb858f880395056543b536b048",
    "flipped_4iet()": "3f0af00a6a722d5bf62cd37f91843d9fd9255a06dc135678aca20f0528f1bf03",
    "five_letter_word()": "1855764f03d3491ca588f7e9477c898c57c0c3f4b164d007eaca97dec61b25a5",
    "six_letter_word()": "30f81e56ed80f187d2b50577e20db7d7ffbb20f72c35548432557176c0d01981",
    "seven_letter_iet()": "914bd7cbee11e1d7832a794d1e1e644a47c49434725aee4f5cccafd73dff1b7a",
    "golden_word(4000)": "6d4db4278eb95671959b2eb8e8c070c19504b9536de4d5fc2f1c613badd9264b",
    "silver_word(20_000)": "e5ea37c2f00aa37866fa1cdb50617d50d3843eaf9db42db08f543fc4b2d5743d",
    "golden_mechanical_word(10_000)":
        "3e68fa0d29296c7ac035b9a7ebf3b59d36987dd88f2089ae3f85d70ebad16d83",
    "fibonacci_word(10_000)": "f32f9a27b002149e5b1da64e292effdd023bc9ac7992f546c12862004d26e9b8",
    "thue_morse_word(2 ** 14)": "411928de281c2f7d8659aa2da40770acf1e5878fcd883d09231b76d81c146ec4",
    "tribonacci_word(10_000)": "5c30774e63330e7c47aec8af32d3d3b1b52c704aae8525f7223d7f3d5e955f9c",
    "seven_letter_word()": "d7438001fcbf750a258a23b6d675c16bc8b234cd42940fed2c1d1ddaae3e09df",
    "[random_exact_iet(random.Random(s), 2 + s % 6) for s in range(12)]":
        "1d60383af2c1ed2be09b830fd0071d0efee69d4ce3ca60c847b19d459b869a4b",
    "[random_point(random.Random(s), (0, 2, 5)[s % 3]) for s in range(12)]":
        "208cfd8a1f19076f7e2646ee5370e3034742dcb8bbb04eeffcb5962e8b20033a",
    "[random_exchange(random.Random(s), 1 + s % 7, (0, 2, 5)[s % 3], 0.5) for s in range(21)]":
        "8bab4fb41cd229ebc1e0cff7eef22591aed9f04bea13e10de52a66ff4c44ad1b",
    "[random_word(s, 'abcdef'[:2 + s % 5], 500) for s in range(16)]":
        "5e43e626608dc86d38ac54a1175c34a36102adf820cab032a327944d0dde6ed0",
    "flipped_corpus(120)": "9a2922ee60dfb55533f40c9d27390cd4a22d1fc278e07598a577988b94f0b76b",
    "acceptance_corpus()": "f42ee4870ec156b93f41b88727d0bd5032c6ea264028fb16e0d30d9daa8ac80f",
    "search_corpus()": "f452fd50ae4f55357a8f22ae2ced158b57361ee22eac0a7e089dd6d914722e9c",
    "label_search_words()": "4d37c520292b8f3f03f41dd40c07eb747e3db9cbe9c87f8d1d1181c2c1333650",
    "levels_corpus()": "0633a986a9281225a85bb4780840ce44b6b11b1ed1ef54a95525e871791b116a",
    "mark_clash_word()": "d79562cbe397fb25172efe3d652032212638a64b418f935281ad4f4d6d0c5360",
}


def canonical(x) -> str:
    """A text form of a family's value that does not depend on hashing."""
    if isinstance(x, ExactScalar):
        return f"({x.rat})+({x.coef})*sqrt({x.d})"
    if isinstance(x, IETSpec):
        return "IET" + canonical((x.lengths, x.permutation, x.flips))
    if isinstance(x, (set, frozenset)):
        return "{" + ",".join(sorted(canonical(v) for v in x)) + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(canonical(v) for v in x) + "]"
    return repr(x)


def test_families_draw_what_they_are_pinned_to():
    got = {call: hashlib.sha256(canonical(eval(call, vars(corpus))).encode()).hexdigest()
           for call in PINNED}
    assert got == PINNED
