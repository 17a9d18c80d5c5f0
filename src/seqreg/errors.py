"""Exception types shared across the package.

Every operation-level precondition failure maps to one of these, and the CLI
maps them onto its exit codes (1 for parse problems, 2 for domain/regime
problems, 3 for verify-mode deviations).
"""

import sys


class SeqRegError(Exception):
    """Base class for all package errors."""


class ParseError(SeqRegError):
    """Malformed input file, number literal, or descriptor string."""


class Unprintable(ParseError):
    """An exact value to be printed has an integer longer than Python prints."""

    def __init__(self):
        super().__init__(f"an exact value in the output has more than "
                         f"{sys.get_int_max_str_digits()} digits, Python's limit "
                         f"for printing an integer")


class NonFiniteEntry(SeqRegError):
    """An operation met an infinite (or zero, where positivity is needed) entry."""


class NotLogConvex(SeqRegError):
    """Raised by operations that require log-convexity; carries the witness index."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class InconsistentDeclaration(SeqRegError):
    """Declared regime contradicts window evidence or a closed-form tail."""


class WindowTooShort(SeqRegError):
    """The window does not contain enough trusted data to decide."""


class OutOfDomain(SeqRegError):
    """Evaluation point lies outside the function's domain."""


class Unbounded(SeqRegError):
    """The requested supremum diverges for this regime."""


class RegimeMismatch(SeqRegError):
    """Operation precondition on the growth regime failed.

    The message always names the offending regime so the CLI can surface it.
    """

    def __init__(self, message: str, regime: str):
        super().__init__(message)
        self.regime = regime


class InfinityAtZero(SeqRegError):
    """Index 0 must be finite: it anchors every construction."""


class UnknownAIota(SeqRegError):
    """Case2 operation needs the limit slope but none was declared or derivable."""


class AxiomViolation(SeqRegError):
    """A regularizing-function axiom failed; carries which one and a witness."""

    def __init__(self, axiom: str, witness, message: str | None = None):
        super().__init__(message or f"axiom ({axiom}) violated at {witness!r}")
        self.axiom = axiom
        self.witness = witness


class InfiniteEntryUnsupported(SeqRegError):
    """+inf entries exhaust the window and the descriptor has no blow-up point."""


class NotComparable(SeqRegError):
    """Neither regularizing function dominates the other on the probe set."""


class TruncatedTail(SeqRegError):
    """An explicit-only sequence was evaluated beyond its stored prefix."""

    def __init__(self, index: int, length: int):
        super().__init__(f"index {index} beyond explicit prefix of length {length}")
        self.index = index
        self.length = length
