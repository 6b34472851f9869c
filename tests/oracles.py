"""Definitions the package no longer needs that the test oracles still use."""


def is_left_inversion(pi, letter):
    """True iff the values letter and letter+1 are reversed in pi.

    Equivalently, left multiplication by s_letter shortens pi.
    """
    entries = pi.entries
    if not 1 <= letter <= len(entries) - 1:
        raise ValueError(f"letter {letter} out of range 1..{len(entries) - 1}")
    return entries.index(letter + 1) < entries.index(letter)
