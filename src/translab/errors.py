"""Exception types shared across the package."""


class TranslabError(Exception):
    """Base class for all package errors."""


class ShapeMismatch(TranslabError, ValueError):
    """Operands have incompatible shapes or fields."""


class BadPrime(TranslabError, ValueError):
    """Entrywise reduction collides with the characteristic (denominator
    divisible by p, or no compatible square root of -1)."""


class SingularTransform(TranslabError, ValueError):
    """An equivalence transform was given a non-invertible factor."""


class NotIdempotent(TranslabError, ValueError):
    """A compression was given a matrix P with P*P != P."""


class DimensionTooLarge(TranslabError, ValueError):
    """The exact pencil decision procedure only handles dim <= 2."""


class BudgetExceeded(TranslabError, RuntimeError):
    """An exhaustive enumeration would exceed the configured point budget."""


class ParameterOutOfRange(TranslabError, ValueError):
    """Family parameters violate the constructor's validity range."""


class VerificationFailed(TranslabError):
    """An exact re-verification of a witness or violation did not hold."""
