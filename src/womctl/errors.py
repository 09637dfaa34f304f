"""Exception types shared across the package, and the argument checks that raise them."""

import numbers


class WomError(Exception):
    """Base class for all womctl errors."""


class NetworkError(WomError):
    """Base class for communication-graph validation errors."""


class NotStronglyConnected(NetworkError):
    def __init__(self, source: int, target: int):
        self.source = source
        self.target = target
        super().__init__(f"no path from agent {source} to agent {target}")


class NonPositiveDelay(NetworkError):
    pass


class DuplicateLink(NetworkError):
    pass


class ExplicitSelfLoop(NetworkError):
    pass


class ValidationError(WomError):
    """Base class for instance validation errors."""


class DistributionNotNormalized(ValidationError):
    def __init__(self, name: str, total: float):
        self.name = name
        self.total = total
        super().__init__(f"distribution {name} sums to {total!r}, expected 1")


class ShapeMismatch(ValidationError):
    pass


class AgentCountMismatch(ValidationError):
    pass


class DomainMismatch(WomError):
    """Strategy table keys do not match the instance's information schemas."""


class OutOfRange(WomError):
    pass


class IndexOrder(WomError):
    """Inaccessible sets are defined only with respect to equal or higher indices."""


class SchemaMismatch(WomError):
    pass


def as_integer(value, name: str) -> int:
    """A delay, cap, count or seed as an int: numpy integers pass, bools and non-integers raise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ShapeMismatch(f"{name} must be an integer, got {value!r}")
    return int(value)


def checked_index(value, name: str, low: int, high: int) -> int:
    """An agent or stage index as an int in low..high: numpy integers pass;
    a bool, a non-integer or a value out of range raises `OutOfRange`."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (integral and low <= value <= high):
        raise OutOfRange(f"{name} {value!r} is out of range {low}..{high}")
    return int(value)


def format_count(n: int) -> str:
    """`n` in decimal, or "more than 10^N" when it has more digits than the
    interpreter converts to a string; N is a power of ten that n exceeds."""
    try:
        return str(n)
    except ValueError:  # past sys.get_int_max_str_digits()
        # 0.3010299956 < log10(2), so 10^N <= 2^(bit_length - 1) <= n
        return f"more than 10^{(n.bit_length() - 1) * 3010299956 // 10**10}"


class CapExceeded(WomError):
    """A search needs more candidates than its cap. With `exact=False` the
    count stopped early and `required` is only a lower bound."""

    def __init__(self, required: int, cap: int, what: str = "search", exact: bool = True):
        self.required = required
        self.cap = cap
        self.what = what
        need = format_count(required) if exact else f"more than {cap}"
        super().__init__(f"{what} needs {need} candidates, cap is {cap}")


class ImpossibleObservation(WomError):
    """The conditioning event has probability zero under the current belief."""


class ZeroProbabilityCondition(WomError):
    pass


class MissingConditional(WomError):
    """A required conditional belief was not supplied to the factorization check."""
