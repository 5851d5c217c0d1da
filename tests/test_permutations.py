import random
from itertools import permutations

from klr.permutations import (
    all_permutations,
    apply_perm_to_seq,
    apply_word_to_seq,
    block_sum,
    canonical_word,
    identity,
    inverse,
    inversions,
    left_mult_letter,
    longest_element,
    min_left_descent,
    right_mult_letter,
    word_to_perm,
)


def test_compose_and_inverse():
    for m in range(1, 5):
        for w in permutations(range(m)):
            inv = inverse(w)
            assert tuple(w[x] for x in inv) == identity(m)
            assert tuple(inv[x] for x in w) == identity(m)


def test_canonical_word_properties():
    for m in range(1, 7):
        for w in all_permutations(m):
            word = canonical_word(w)
            assert len(word) == len(inversions(w))
            assert word_to_perm(word, m) == w


def test_canonical_word_is_lex_smallest_s3():
    w0 = longest_element(3)
    assert canonical_word(w0) == (1, 2, 1)
    assert canonical_word(identity(4)) == ()
    assert canonical_word((1, 0)) == (1,)


def test_canonical_recursion():
    # canonical(w) = (c,) + canonical(s_c w) for the minimal left descent c
    for w in all_permutations(5):
        word = canonical_word(w)
        if not word:
            continue
        c = min_left_descent(w)
        assert word[0] == c
        assert word[1:] == canonical_word(left_mult_letter(c, w))


def test_left_vs_right_multiplication():
    rng = random.Random(0)
    for _ in range(50):
        m = rng.randint(2, 6)
        w = tuple(rng.sample(range(m), m))
        k = rng.randint(1, m - 1)
        # s_k o w  vs  w o s_k
        assert left_mult_letter(k, w) == tuple(
            k if x == k - 1 else k - 1 if x == k else x for x in w)
        assert right_mult_letter(w, k) == w[:k - 1] + (w[k], w[k - 1]) + w[k + 1:]


def test_apply_conventions_agree():
    # applying the word letter by letter from the bottom equals applying w
    rng = random.Random(1)
    for _ in range(50):
        m = rng.randint(2, 6)
        w = tuple(rng.sample(range(m), m))
        seq = tuple(rng.choice("ab") for _ in range(m))
        word = canonical_word(w)
        assert apply_word_to_seq(word, seq) == apply_perm_to_seq(w, seq)


def test_block_sum():
    assert block_sum((1, 0), (0, 1, 2)) == (1, 0, 2, 3, 4)
    assert canonical_word(block_sum((1, 0), (1, 0))) == (1, 3)


def test_longest_element():
    w0 = longest_element(4)
    assert len(inversions(w0)) == 6
    assert inverse(w0) == w0
