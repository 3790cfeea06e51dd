"""Exception types, and the base of the immutable records, shared across
the package."""

from __future__ import annotations


class GF4CodesError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(GF4CodesError, ValueError):
    """Raised when structured text input cannot be parsed."""


class MatrixFormatError(FormatError):
    """Raised when matrix text cannot be parsed or has inconsistent shape."""


class PreconditionError(GF4CodesError, ValueError):
    """Raised when an operation's mathematical precondition fails.

    Examples: doubling a pair that is not hermitian self-orthogonal,
    requesting quantum parameters from a code that is not self-orthogonal,
    supplying an auxiliary vector of even weight.
    """


class BudgetExceededError(GF4CodesError, RuntimeError):
    """Raised when an exact enumeration would exceed the configured budget."""


class ConsistencyError(GF4CodesError, ArithmeticError):
    """Raised when an exact computation produces an impossible result.

    A MacWilliams transform that divides with a remainder or yields a
    negative coefficient signals a wrong input enumerator or dimension, not
    a recoverable condition.
    """


class CatalogKeyError(GF4CodesError, LookupError):
    """Raised when a catalog lookup names no known entry."""


class _Record:
    """Base of the package's immutable records.

    A subclass lists its fields, in order, as `__slots__`, and its
    `__init__` stores each with `object.__setattr__`.  The base supplies
    the rest from that order: `repr` as ``Name(field=value, ...)``, ``==``
    and `hash` on the tuple of field values (``==`` only between instances
    of one class), positional pattern matching, pickling and copying
    through the constructor, and refusal of any attribute assignment or
    deletion.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.__match_args__ += tuple(cls.__dict__.get("__slots__", ()))

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()
