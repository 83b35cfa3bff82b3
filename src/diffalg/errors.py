"""Exception types shared across the package."""


class DiffalgError(Exception):
    """Base class for all errors raised by this package."""


class NonLinearImage(DiffalgError):
    """A map that must send variables to linear, constant-free polynomials
    was given an image of degree > 1 or with a constant term."""


class UnboundVariable(DiffalgError):
    """An evaluation environment is missing a variable that occurs in the
    polynomial being evaluated."""


class MixedVariables(DiffalgError):
    """Variables that cannot be ordered against each other (plain names and
    derivative variables) were multiplied into one monomial."""


class MalformedNesting(DiffalgError):
    """An outer variable of a nested differential polynomial does not decode
    to an inner differential polynomial."""


class MalformedPayload(DiffalgError):
    """A JSON payload given to the command line does not have the
    documented shape (an object where an object is expected, words as
    lists of strings, terms as lists of objects, rational coefficients)."""


class ResultTooLarge(DiffalgError):
    """A result holds an integer of more decimal digits than the
    interpreter converts to text (``sys.get_int_max_str_digits()``)."""


class TooManyLetters(DiffalgError):
    """A process interned more Rota-Baxter letters than ``chr`` has characters."""


class FlavorMismatch(DiffalgError):
    """Two series of different flavors (Hurwitz vs. power) were combined."""


class OrderMismatch(DiffalgError):
    """Two series of different truncation orders were combined by a strict
    operation."""


class OrderExhausted(DiffalgError):
    """An operation needs more precision than the series' truncation order
    provides."""


class ModeError(DiffalgError):
    """The expression grammar was used in plain-polynomial mode with syntax
    (primes, the D operator) that only exists in differential mode."""


class ParseError(DiffalgError):
    """Syntax error in the expression grammar.

    Carries the 1-based byte offset of the failure and the set of token
    descriptions that would have been accepted there.
    """

    def __init__(self, message: str, offset: int, expected: frozenset[str]):
        super().__init__(f"{message} at byte {offset} (expected: {', '.join(sorted(expected))})")
        self.offset = offset
        self.expected = expected
