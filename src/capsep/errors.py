"""Exception hierarchy shared by all capsep modules."""


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
