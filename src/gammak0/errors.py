"""Exception types raised by the engine.

Every failure mode of the public API maps to one of these classes, so callers
(and the CLI exit-code logic) can catch ``EngineError`` uniformly.
"""


class EngineError(Exception):
    """Base class for all engine errors."""


class SchemaError(EngineError):
    """Malformed or inconsistent serialized input."""


# finite_group
class NotAssociative(EngineError):
    pass


class NoIdentity(EngineError):
    pass


class NoInverse(EngineError):
    pass


# group_ring
class GroupMismatch(EngineError):
    pass


# ordered_simplicial / gamma_maps
class ShapeMismatch(EngineError):
    pass


class NotInCone(EngineError):
    pass


class PreorderViolated(EngineError):
    pass


class SumMismatch(EngineError):
    pass


class IndexOutOfRange(EngineError):
    pass


class NotEquivariant(EngineError):
    pass


# sdp_engine
class RelationNotZero(EngineError):
    pass


class NotPositive(EngineError):
    pass


class ProductNotInCone(EngineError):
    pass


# shen
class DeltaNotNormal(EngineError):
    pass


class TargetLacksSdp(EngineError):
    pass


# limits
class DeltaMismatch(EngineError):
    pass


class NotPositiveMap(EngineError):
    pass


class UnitNotPreserved(EngineError):
    pass


# hom_realization
class NotOrderUnit(EngineError):
    pass


class NotRealizable(EngineError):
    pass


class UnitMismatch(EngineError):
    pass
