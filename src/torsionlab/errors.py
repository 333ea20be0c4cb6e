"""Exception types shared across the workbench."""


class WorkbenchError(Exception):
    """Base class for all workbench failures."""


class InvalidArgument(WorkbenchError, ValueError):
    """An argument lies outside the operation's domain, such as an element
    index past the carrier or an empty variable pattern."""


class SizeCapExceeded(WorkbenchError):
    """A construction would exceed the configured carrier size cap."""


class InvalidModulus(WorkbenchError):
    """Ring modulus out of range, or a non-prime where a prime is required."""


class NonMonicPolynomial(WorkbenchError):
    """Quotient polynomial is not monic of degree at least one."""


class RingMismatch(WorkbenchError):
    """Operands live over different rings."""


class NotMultiplicativelyClosed(WorkbenchError):
    """Element set is not multiplicatively closed; carries a witness pair."""


class NotPrime(WorkbenchError):
    """The given ideal is not a prime ideal."""


class NotASubmodule(WorkbenchError):
    """Element set is not closed under addition and the ring action."""


class UnsupportedMap(WorkbenchError):
    """Ring map is not a surjective homomorphism of the supported kind."""


class PreconditionFailed(WorkbenchError):
    """A stated precondition does not hold for the given input."""


class TheoremViolation(Exception):
    """An exhaustively checkable statement failed: a bug, not bad input."""


class TailDisciplineViolation(WorkbenchError):
    """Monomial ideal families break the fresh-tail-variable discipline."""


class SpecValidationError(WorkbenchError):
    """Workbench spec file failed schema validation."""


class SpecPredicateError(Exception):
    """The compiled spec predicate cannot follow the shipped schema, or
    disagrees with jsonschema: a bug, not bad input."""
