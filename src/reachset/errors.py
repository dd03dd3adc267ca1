"""Exception types shared across the library, and the count and JSON field checks."""

from numbers import Integral


class ReachsetError(Exception):
    """Base class for all library-specific failures."""


class ValidationError(ReachsetError, ValueError):
    """Malformed or inconsistent input (wrong shape, non-Hermitian, bad trace)."""


class ContractivityViolation(ReachsetError):
    """The relaxation matrix is not symmetric positive definite.

    Raised when an operation requires a strictly contractive relaxation
    channel but the supplied generator does not provide one.
    """


class FixedPointUndefined(ReachsetError):
    """The free dynamics has no unique fixed point (singular drift matrix)."""


class OriginNotControllable(ReachsetError):
    """The base point of a boundary ray scan is not locally controllable."""


class ResidualTooLarge(ReachsetError):
    """A vector is not proportional to the requested target direction."""


class RankDeficient(ReachsetError):
    """Trajectory data cannot identify the requested rate parameters."""


class CertificationFailed(ReachsetError):
    """An independent oracle disagrees with a solver's result."""


class NoUniqueFixedPoint(ReachsetError):
    """No attracting fixed point is certified: the period's bound q >= 1 or (1+q)/(1-q) > 1e12."""


def check_count(value, what, minimum=1):
    """value as an int, refused with ValidationError unless it is an
    integer (a Python or numpy one, not a bool) of at least `minimum`, 0 or
    1; `what` names it."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
        kind = "non-negative" if minimum == 0 else "positive"
        raise ValidationError(f"{what} must be a {kind} integer ({what} >= {minimum}), "
                              f"got {value!r}")
    return int(value)


def json_fields(d, what, *keys):
    """Values of `keys` in the JSON object d, naming the first one missing."""
    for key in keys:
        if not isinstance(d, dict) or key not in d:
            raise ValidationError(f"{what} JSON must be an object with key {key!r}")
    return [d[key] for key in keys]


def _holds_bool(value):
    """Whether a JSON value is true or false, or a list holding one at any depth."""
    if isinstance(value, (list, tuple)):
        return any(_holds_bool(item) for item in value)
    return isinstance(value, bool)


def json_floats(d, what, *keys):
    """Values of `keys` in the JSON object d as float arrays, naming a non-numeric one.

    JSON true and false are not numbers here, although numpy would read
    them as 1.0 and 0.0.
    """
    import numpy as np  # the exception classes alone load no numpy

    out = []
    for key, value in zip(keys, json_fields(d, what, *keys)):
        if _holds_bool(value):
            raise ValidationError(f"{what} JSON key {key!r} must hold numbers, not true or false")
        try:
            out.append(np.asarray(value, dtype=float))
        except (TypeError, ValueError) as exc:  # a string, an object or a ragged list
            raise ValidationError(
                f"{what} JSON key {key!r} must hold numbers: {exc}"
            ) from exc
    return out


def ldexp_normal(value, exponent, what):
    """value * 2^exponent, elementwise, refused with ValidationError where a
    nonzero value would leave the normal float range, or is not finite.

    For a quantity solved at a power-of-two scale and scaled back exactly;
    `what` names the cause and the quantity, as in "target's scale puts
    kappa_max".
    """
    import numpy as np  # the exception classes alone load no numpy

    _, size = np.frexp(value)
    size = size + exponent  # |value| 2^exponent = f 2^size, 1/2 <= f < 1
    bad = np.flatnonzero(~np.isfinite(value)
                         | ((np.asarray(value) != 0) & ((size < -1021) | (size > 1024))))
    if bad.size:
        first = bad[0]
        raise ValidationError(f"{what} = {float(np.ravel(value)[first])!r} * "
                              f"2^{np.ravel(np.broadcast_to(exponent, np.shape(size)))[first]} "
                              "outside the normal float range")
    return np.ldexp(value, exponent)
