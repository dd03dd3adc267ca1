"""Exception types shared across the library, and the JSON field checks."""


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
    """The one-period map has no attracting fixed point (rho >= 1 or I - M singular)."""


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
