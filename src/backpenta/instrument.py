"""Operation-counting scalar used to check the solver's linear cost.

Wraps any numeric value; each -, * and / bumps a shared counter, and
bool() reads the value uncounted. These are all the LU recurrences use,
always with a wrapped value on the left, so any other operator raises
TypeError rather than going uncounted.
"""

from __future__ import annotations


class OpCounter:
    __slots__ = ("count",)

    def __init__(self):
        self.count = 0


class CountingScalar:
    __slots__ = ("value", "counter")

    def __init__(self, value, counter: OpCounter):
        self.value = value
        self.counter = counter

    def _wrap(self, value):
        return CountingScalar(value, self.counter)

    def _unwrap(self, other):
        return other.value if isinstance(other, CountingScalar) else other

    def __sub__(self, other):
        self.counter.count += 1
        return self._wrap(self.value - self._unwrap(other))

    def __mul__(self, other):
        self.counter.count += 1
        return self._wrap(self.value * self._unwrap(other))

    def __truediv__(self, other):
        self.counter.count += 1
        return self._wrap(self.value / self._unwrap(other))

    def __bool__(self):
        return bool(self.value)

    def __repr__(self):
        return f"CountingScalar({self.value!r})"
