"""String-walking definitions of (eps_i, phi_i), kept as test oracles.

`letter_phi`/`letter_eps` count steps along an i-string through the letter
operators, and `reduce_signature` cancels the signs of a whole tensor word;
`tableaux.letter_signs` and `tableaux.tableau_apply` are checked against
them.
"""

from krcrystals.tableaux import (
    letter_e,
    letter_f,
    reading_word,
    spin_eps,
    spin_phi,
)


def letter_phi(ctype: str, n: int, i: int, x: int) -> int:
    k = 0
    while x is not None:
        x = letter_f(ctype, n, i, x)
        k += x is not None
    return k


def letter_eps(ctype: str, n: int, i: int, x: int) -> int:
    k = 0
    while x is not None:
        x = letter_e(ctype, n, i, x)
        k += x is not None
    return k


def tableau_eps_phi(ctype: str, n: int, elem, i: int) -> tuple[int, int]:
    cols, spin = elem
    pairs = [
        (letter_eps(ctype, n, i, x), letter_phi(ctype, n, i, x))
        for x in reading_word(cols)
    ]
    if spin is not None:
        pairs.append((spin_eps(ctype, n, i, spin), spin_phi(ctype, n, i, spin)))
    return reduce_signature(pairs)


def reduce_signature(pairs) -> tuple[int, int]:
    """(eps, phi) of b_1 x ... x b_m from per-factor (eps, phi)."""
    minus = plus = 0
    for e, p in pairs:
        cancel = min(plus, e)
        plus -= cancel
        e -= cancel
        minus += e
        plus += p
    return minus, plus
