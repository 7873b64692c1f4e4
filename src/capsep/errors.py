"""Exception hierarchy and the read-only result base shared by all capsep modules."""


class ReadOnly:
    """A result whose ``__init__`` sets its checked fields through
    ``self.__dict__``; assigning or deleting an attribute raises AttributeError."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__


class CapsepError(Exception):
    """Base class for all library errors."""


class InvalidParameterError(CapsepError):
    """An argument violates an operation's precondition."""


class ResourceLimitError(CapsepError):
    """The request would exceed the desk-scale memory/size caps."""


class ConstructionError(CapsepError):
    """A constructive procedure produced an object that failed its own check."""


class CertificateError(CapsepError):
    """An operator-system certificate violated one of its exact conditions."""


class InternalCheckError(CapsepError):
    """A check that is proven to hold failed; indicates an implementation bug."""
