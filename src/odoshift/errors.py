"""Exception hierarchy shared across the package, and the base of its value types.

The distinction between "you gave me garbage" (InvalidInputError), "your
prefix is too short to decide" (InsufficientDataError) and "this sequence
cannot belong to the subshift" (NotInSubshiftError) is deliberate: callers
acting on finite data need to know whether to fetch more data or to reject
the input outright.
"""


class OdoshiftError(Exception):
    """Base class for all package errors."""


class InvalidInputError(OdoshiftError, ValueError):
    """Malformed or out-of-domain argument."""


class InsufficientDataError(OdoshiftError):
    """The available prefix is too short to certify the requested property.

    ``required_length`` names the prefix length that would suffice.
    """

    def __init__(self, message, required_length=None):
        super().__init__(message)
        self.required_length = required_length


class NotInSubshiftError(OdoshiftError):
    """Input violates a structural constraint every valid sequence satisfies."""


class ResourceLimitError(OdoshiftError):
    """An operation would exceed the configured allocation cap.

    ``required_bytes`` is the cap that would let the operation proceed.
    """

    def __init__(self, message, required_bytes=None):
        super().__init__(message)
        self.required_bytes = required_bytes


class Immutable:
    """Base of the value types ``Substitution`` and ``DyadicInt``: ``__init__`` fills the fields once, then fixed.

    ``__init__`` writes the fields with ``vars(self).update``; assigning or
    deleting an attribute afterwards raises AttributeError.  repr and ``==``
    read the fields named in ``_fields``, in order, and the hash reads those
    in ``_hash_fields`` (None: the same).  Only a value of the same class is equal.
    """

    _fields = ()
    _hash_fields = None

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self._fields)

    def __hash__(self) -> int:
        names = self._fields if self._hash_fields is None else self._hash_fields
        return hash(tuple(getattr(self, name) for name in names))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of immutable {type(self).__name__}")
