"""Exception hierarchy shared by all ibnsim modules."""


class IbnError(Exception):
    """Base class for every domain-level error raised by ibnsim."""


class DuplicateNodeError(IbnError):
    pass


class UnknownNodeError(IbnError):
    pass


class DuplicateLinkError(IbnError):
    pass


class UnknownLinkError(IbnError):
    pass


class BrokenPathError(IbnError):
    """A node sequence is not connected by fiber links at every hop."""


class LinkStateError(IbnError):
    """Link already in the requested operational state."""


class BookingConflictError(IbnError):
    """A resource is held by another intent, out of capacity, or down."""


class InvalidPayloadError(IbnError):
    pass


class UnknownIntentError(IbnError):
    pass


class IllegalTransitionError(IbnError):
    """Requested lifecycle edge is outside the allowed transition set."""


class CycleError(IbnError):
    pass


class StillInstalledError(IbnError):
    """Attempt to remove an intent that still holds installed resources."""


class WrongStateError(IbnError):
    pass


class NotLocalSourceError(IbnError):
    """Intent source node is not owned by the compiling domain."""


class UnknownRemoteError(IbnError):
    """Message referenced an intent id the receiving domain does not know.

    Always indicates a coordination-protocol bug; never swallowed.
    """


class ScenarioError(IbnError):
    pass


class ScenarioParseError(ScenarioError):
    pass


class ScenarioValidationError(ScenarioError):
    pass


class InvalidConfigError(IbnError):
    pass
