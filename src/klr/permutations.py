"""Symmetric-group combinatorics on one-line permutations.

Permutations on m letters are tuples ``w`` with ``w[a]`` the image of
position ``a`` (0-based).  Adjacent-transposition letters in words are
1-based: letter k swaps strand positions k and k+1.

The canonical reduced word of w is the lexicographically smallest one; it is
produced by greedily taking the minimal left descent, so it satisfies
``canonical(w) = [c] + canonical(s_c w)`` where c is the minimal left
descent.  Words are read left-to-right as top-to-bottom in diagrams.

Lex-min words are closed under prefixes as well as suffixes: if
``canonical(w) = P + [d]``, then ``P = canonical(w s_d)``.  Otherwise
``canonical(w s_d) + [d]`` would be a reduced word of w smaller than
``P + [d]``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations as _permutations

from .cartan import check_int


class GeneratorIndexError(IndexError, ValueError):
    """A dot or crossing index outside the strands of its sequence."""


def check_tokens(tokens, m):
    """Check a generator word, ("D", k) for a dot on strand k and ("C", k)
    for a crossing of strands k and k+1, over m strands.

    Both routes, the rewriting kernel and the polynomial representation,
    check their words here.  Raises ValueError for an unknown token type
    or an index that is not an int (``cartan.check_int``; a bool is not
    one), and GeneratorIndexError for a dot or crossing outside the m
    strands.  Returns the word as a tuple, read once.
    """
    tokens = tuple(tokens)
    for typ, k in tokens:
        if typ == "D":
            what, top = "dot position", m
        elif typ == "C":
            what, top = "crossing", m - 1
        else:
            raise ValueError(f"unknown token type {typ!r}")
        if not 1 <= check_int(k, what) <= top:
            raise GeneratorIndexError(
                f"{what} {k} out of range for {m} strands")
    return tokens


def identity(m):
    return tuple(range(m))


def inverse(w):
    inv = [0] * len(w)
    for a, b in enumerate(w):
        inv[b] = a
    return tuple(inv)


def inversions(w):
    """Pairs of positions (a, b), a < b, with w[a] > w[b]."""
    m = len(w)
    return [(a, b) for a in range(m) for b in range(a + 1, m) if w[a] > w[b]]


def left_mult_letter(k, w):
    """s_k o w for a 1-based letter k (swaps the *values* k-1, k)."""
    a, b = k - 1, k
    return tuple(b if x == a else a if x == b else x for x in w)


def right_mult_letter(w, k):
    """w o s_k for a 1-based letter k (swaps positions k-1, k)."""
    lst = list(w)
    lst[k - 1], lst[k] = lst[k], lst[k - 1]
    return tuple(lst)


def min_left_descent(w):
    """Smallest 1-based k with l(s_k w) < l(w), or None for the identity."""
    inv = inverse(w)
    for k in range(len(w) - 1):
        if inv[k] > inv[k + 1]:
            return k + 1
    return None


@lru_cache(maxsize=None)
def canonical_word(w):
    """Lexicographically smallest reduced word of w (tuple of 1-based letters)."""
    word = []
    while True:
        c = min_left_descent(w)
        if c is None:
            return tuple(word)
        word.append(c)
        w = left_mult_letter(c, w)


def word_to_perm(word, m):
    """Product s_{k1} o s_{k2} o ... o s_{kr} of the letters of the word."""
    w = identity(m)
    for k in word:
        w = right_mult_letter(w, k)
    return w


def apply_perm_to_seq(w, seq):
    """Standard action: the entry at position a moves to position w[a]."""
    out = [None] * len(seq)
    for a, v in enumerate(seq):
        out[w[a]] = v
    return tuple(out)


def apply_word_to_seq(word, seq):
    """Apply the letters of a word bottom-to-top (i.e. rightmost first)."""
    seq = tuple(seq)
    for k in reversed(word):
        lst = list(seq)
        lst[k - 1], lst[k] = lst[k], lst[k - 1]
        seq = tuple(lst)
    return seq


def all_permutations(m):
    return _permutations(range(m))


def block_sum(w1, w2):
    """The permutation acting as w1 on the first block and w2 on the second."""
    m1 = len(w1)
    return tuple(w1) + tuple(x + m1 for x in w2)


def longest_element(m):
    return tuple(range(m - 1, -1, -1))
