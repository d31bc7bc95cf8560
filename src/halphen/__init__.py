"""Exact-arithmetic toolkit for Hilbert functions of homogeneous ideals
and the degree/genus classification of smooth curves in P^3."""

__version__ = "0.1.0"


def _decimal(n: int) -> str:
    """A non-negative number for a refusal message: in decimal, or, past the
    int-to-str digit limit (sys.get_int_max_str_digits), as a power of ten
    it reaches, read off the bit length so that no long string is made."""
    try:
        return str(n)
    except ValueError:
        # n >= 2^(bit_length - 1) and 0.30102 < log10(2), so n >= 10^k
        return f"at least 10^{(n.bit_length() - 1) * 30102 // 100000}"
