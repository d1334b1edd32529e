"""Truncated bounce series of a backed slab: the independent oracle for F.

``permslab.em`` sums the bounce series in closed form; this sums its
first terms one by one, from the same ``slab_bounce_terms``.
"""

from permslab.em import slab_bounce_terms


def effective_reflection_truncated(eps_r, geom, freq: float, q: int) -> complex:
    """Front-face reflection keeping only the first q wave components.

    Component 1 is the direct front-face reflection; components
    2..q are the successive transmitted bounces, summed term by term.
    """
    if q < 2:
        raise ValueError(f"bounce count q must be >= 2, got {q}")
    total, term, ratio = slab_bounce_terms(eps_r, geom, freq)
    for _ in range(q - 1):
        total += term
        term *= ratio
    return total
