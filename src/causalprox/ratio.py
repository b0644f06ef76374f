"""Parsing and serialization helpers for exact rational numbers."""

from fractions import Fraction

from .errors import FormatError


def parse_rational(text):
    """Parse ``"p/q"`` or a decimal literal into an exact Fraction.

    Text must be ASCII with no ``_``: Fraction() alone would also read other
    scripts' digits and digit separators, which the count column rejects.
    """
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise FormatError(f"expected an exact rational, got {text!r}")
    if not text.isascii() or "_" in text:
        raise FormatError(f"not a rational number: {text!r}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"not a rational number: {text!r}") from exc


def rational_json(value):
    """Serialize a Fraction as an exact string plus a float approximation."""
    frac = Fraction(value)
    return {"exact": f"{frac.numerator}/{frac.denominator}", "approx": float(frac)}


def decimal_string(value: Fraction) -> str:
    """Render a rational whose denominator divides a power of ten exactly.

    Used for CSV probability columns so files round-trip with no loss;
    raises FormatError for non-terminating values rather than rounding.
    """
    value = Fraction(value)
    num, den = value.as_integer_ratio()
    twos = (den & -den).bit_length() - 1
    fives, rest = 0, den >> twos
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        raise FormatError(
            f"{value} has no terminating decimal representation"
        )
    places = max(twos, fives)
    digits = num * 10**places // den  # exact: den divides 10**places
    sign = "-" if digits < 0 else ""
    digits = abs(digits)
    if places == 0:
        return f"{sign}{digits}"
    text = str(digits).rjust(places + 1, "0")
    return f"{sign}{text[:-places]}.{text[-places:]}"
