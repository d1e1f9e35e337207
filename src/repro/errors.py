"""The base of every loader's bad-input error, and the one number rule.

An int field takes an int or an integral float, never a boolean, a
string or ``4.7``; a float field takes a finite int or float, never a
boolean, a string, NaN or an infinity.
"""

from __future__ import annotations

import math
import numbers
from typing import Any, Type


class InputError(ValueError):
    """Bad input from the caller: a spec, document or field, not a bug."""


def strict_int(value: Any, what: str, error: Type[InputError] = InputError,
               template: str = "{what} is not an integer: {value!r}") -> int:
    """``value`` as an int, or ``error`` naming ``what`` and the value."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise error(template.format(what=what, value=value))


def strict_float(value: Any, what: str, error: Type[InputError] = InputError,
                 template: str = "{what} is not a finite number: {value!r}",
                 ) -> float:
    """``value`` as a finite float, or ``error`` naming ``what`` and the value."""
    if type(value) in (float, int) or (  # common types skip the ABC check
            isinstance(value, numbers.Real) and not isinstance(value, bool)):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an int beyond the float range
            pass
    raise error(template.format(what=what, value=value))
