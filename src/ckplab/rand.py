"""Randomness plumbing: seed derivation and the chooser abstraction.

Checking mechanisms and the growth step never touch an rng directly; they
ask a chooser for decisions.  Three implementations share the interface:

* :class:`SimChooser` draws from a PCG64 stream (the live simulation).
* :class:`PathChooser` replays a prescribed decision path and raises
  :class:`NeedBranch` at the first open decision, which is how the drift
  oracle enumerates every probabilistic branch of a check exactly.
* :class:`ScriptChooser` feeds hand-picked outcomes to tests.

All degenerate decisions (probability 0 or 1, a single alternative) are
resolved without consuming randomness, by every implementation, so a
decision path means the same thing everywhere and the accelerated engine
can reproduce the stream draw-for-draw.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import numpy as np


def derive_seed(base_seed: int, *parts) -> int:
    """Stable 63-bit seed for a named substream (cell index, trial, ...).

    Hash-based rather than arithmetic so neighboring trials never share
    correlated PCG64 states.
    """
    text = "|".join([str(base_seed)] + [str(p) for p in parts])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def make_generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


class SimChooser:
    """Chooser backed by a numpy Generator."""

    __slots__ = ("gen",)

    def __init__(self, seed_or_gen):
        if isinstance(seed_or_gen, np.random.Generator):
            self.gen = seed_or_gen
        else:
            self.gen = make_generator(seed_or_gen)

    def maybe(self, p) -> bool:
        if p <= 0:
            return False
        if p >= 1:
            return True
        return self.gen.random() < float(p)

    def uniform_index(self, n: int) -> int:
        if n == 1:
            return 0
        i = int(self.gen.random() * n)
        return n - 1 if i >= n else i

    def pmf_index(self, cum) -> int:
        """Index into a cumulative probability table (last entry 1.0)."""
        if len(cum) == 1:
            return 0
        u = self.gen.random()
        for i, c in enumerate(cum):
            if u < c:
                return i
        return len(cum) - 1

    def weighted_index(self, windex) -> int:
        """One positional draw from a WeightIndex.  Always consumes a
        uniform, even when only one candidate exists, so the stream stays
        aligned with the accelerated engine."""
        u = self.gen.random()
        return windex.select(u * windex.total)


class NeedBranch(Exception):
    """Raised by PathChooser at the first decision its path does not fix.

    ``options`` lists (outcome, probability) pairs; the enumerator forks
    the path once per option and replays.
    """

    def __init__(self, options):
        super().__init__(f"open decision with {len(options)} options")
        self.options = options


class PathChooser:
    """Replays a prescribed decision list for exhaustive enumeration.

    Probabilities attached to a branch are Fractions when ``exact`` is set
    (inputs must then be Fractions or ints), floats otherwise.  The
    running product of chosen-branch probabilities is maintained in
    ``weight``.
    """

    __slots__ = ("path", "cursor", "weight", "exact")

    def __init__(self, path=(), exact: bool = False):
        self.path = list(path)
        self.cursor = 0
        self.exact = exact
        self.weight = Fraction(1) if exact else 1.0

    def _cast(self, p):
        return Fraction(p) if self.exact else float(p)

    def _take(self, options):
        if self.cursor >= len(self.path):
            raise NeedBranch(options)
        value = self.path[self.cursor]
        self.cursor += 1
        for outcome, prob in options:
            if outcome == value:
                self.weight *= prob
                return outcome
        raise ValueError(f"prescribed outcome {value!r} not among options")

    def maybe(self, p) -> bool:
        if p <= 0:
            return False
        if p >= 1:
            return True
        q = self._cast(p)
        return self._take([(True, q), (False, 1 - q)])

    def uniform_index(self, n: int) -> int:
        if n == 1:
            return 0
        share = Fraction(1, n) if self.exact else 1.0 / n
        return self._take([(i, share) for i in range(n)])


class ScriptChooser:
    """Chooser fed by a fixed outcome list, for forcing code paths in tests.

    Decisions beyond the script raise; tests can assert the script was
    fully consumed.
    """

    __slots__ = ("script", "cursor")

    def __init__(self, script):
        self.script = list(script)
        self.cursor = 0

    def _next(self, kind):
        if self.cursor >= len(self.script):
            raise AssertionError(f"script exhausted at {kind} decision")
        value = self.script[self.cursor]
        self.cursor += 1
        return value

    def exhausted(self) -> bool:
        return self.cursor == len(self.script)

    def maybe(self, p) -> bool:
        if p <= 0:
            return False
        if p >= 1:
            return True
        return bool(self._next("maybe"))

    def uniform_index(self, n: int) -> int:
        if n == 1:
            return 0
        i = int(self._next("uniform_index"))
        if not 0 <= i < n:
            raise AssertionError(f"scripted index {i} out of range 0..{n - 1}")
        return i
