"""Exception types shared across the package, and the input rules every
module applies the same way."""

import math
from numbers import Integral


class ExpressivityError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(ExpressivityError):
    """A network failed structural validation."""


class UnsupportedActivationError(ExpressivityError):
    """An operation needed piecewise-linear structure the activation lacks."""


class PreconditionError(ExpressivityError):
    """A documented precondition of an audit did not hold on the given data."""


def check_int(name: str, value, least: int, most: int | None = None) -> int:
    """value as an int, if it is an integer in [least, most]: an Integral or an
    integral float, never a bool. Anything else raises ValueError."""
    integral = isinstance(value, Integral) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not integral or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    if most is not None and value > most:
        raise ValueError(f"{name} must be at most {most}, got {value!r}")
    return int(value)


def check_epsilon(epsilon) -> None:
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if not math.isfinite(epsilon):
        raise ValueError("epsilon must be finite")
