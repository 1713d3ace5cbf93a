"""p-adic valuation of integers, tuned for very large arguments."""

from __future__ import annotations

from .series import INF


def valuation(n, p=3):
    """Largest e with p^e dividing n; the zero integer maps to infinity.

    Divides out square chunks p, p^2, p^4, ... then walks back down, so
    huge valuations cost O(log v) bignum divisions instead of v.  Each
    test is one divmod, since the remainder costs the whole division.
    """
    if not isinstance(n, int) or not isinstance(p, int):
        raise TypeError("valuation expects integers")
    if p < 2:
        raise ValueError(f"base {p} must be at least 2")
    if n == 0:
        return INF
    n = abs(n)
    total = 0
    chunk, width = p, 1
    stack = []
    q, r = divmod(n, chunk)
    while not r:
        n = q
        total += width
        stack.append((chunk, width))
        chunk *= chunk
        width *= 2
        q, r = divmod(n, chunk)
    while stack:
        chunk, width = stack.pop()
        q, r = divmod(n, chunk)
        if not r:
            n = q
            total += width
    return total
