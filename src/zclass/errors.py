"""Exceptions shared across the package, and the group-order caps."""

import math

DEFAULT_ORDER_CAP = 100_000
# --allow-large, enough for E7; also the most any table is built with
LARGE_ORDER_CAP = 5_000_000
# `classes` lists B26 (177,087 classes), D28 and A48, and refuses B27, D29 and A49 up
MAX_LISTED_CLASSES = 200_000
# the A/B/C/D series take O(rank^1.5) big-int additions: under 0.5 s at rank 5000
MAX_FORMULA_RANK = 5000


class ZClassError(Exception):
    """Base class for errors raised by this package."""


class CoxeterParseError(ZClassError):
    """Malformed Coxeter type text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class CoxeterRankError(ZClassError):
    """Rank outside the bounds of the requested family (e.g. D1, I2(2))."""


class UsageError(ZClassError):
    """A request the CLI cannot serve as phrased (wrong method for the type)."""


class OrderCapExceeded(ZClassError):
    """A group enumeration would exceed the configured order cap."""


class UnsupportedGroupError(ZClassError):
    """The request is beyond what this engine serves.

    For example E8's root system, an A/B/C/D rank over MAX_FORMULA_RANK, or a class
    listing over MAX_LISTED_CLASSES.
    """


def order_text(order: int) -> str:
    """An order for a message: its digits, or past 30 digits (Python prints at
    most 4300) their count."""
    if order < 10**30:
        return str(order)
    digits = int((order.bit_length() - 1) * math.log10(2)) + 1  # may be one short
    return f"of {digits + (order >= 10**digits)} digits"


def order_cap_exceeded(
    what: str, order: int | None, cap: int, digits: int | None = None
) -> OrderCapExceeded:
    """The refusal of an order over `cap`, saying whether --allow-large helps.

    An order too large to form comes as None with its digit count (over 30).
    """
    hint = "raise it with --allow-large"
    if digits is not None or order > LARGE_ORDER_CAP:
        hint = f"no order cap serves it (--allow-large raises it to {LARGE_ORDER_CAP})"
    text = order_text(order) if digits is None else f"of {digits} digits"
    return OrderCapExceeded(f"{what} has order {text} > cap {cap}; {hint}")
