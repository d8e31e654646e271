"""Attachment weight families, the parent-count law, and weighted parent
selection.

A prospective parent with ``d`` PT child edges is drawn with probability
proportional to ``a(d)``.  Three families cover the regimes of interest:

* ``Affine(base, slope)``: ``a(d) = base + slope*d``.  base=1, slope=0 is
  uniform growth; base=1, slope=1 is preferential attachment.
* ``PowerShifted(base, exponent)``: ``a(d) = base * (d+1)**exponent``,
  superlinear for exponent > 1.
* ``TableAttachment(values, tail_slope)``: explicit head, affine tail
  ``values[-1] + tail_slope*(d - len + 1)``.  Zeros in the head create
  degree holes that freeze nodes out of the parent pool.

Every family reports increment bounds (inf and sup of ``a(d+1) - a(d)``)
as Fractions under the rule of :func:`_to_fraction`, ``math.inf`` for an
unbounded sup, and whether any weight is zero; the theorem predicates
decide regularity from those, exactly.
"""

from __future__ import annotations

import math
import numbers
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .state import PF


class AllPF(RuntimeError):
    """No PT node exists; the process is over."""


class AllWeightsZero(RuntimeError):
    """PT nodes exist but every attachment weight is zero; growth is stuck."""


class ExactUnavailable(TypeError):
    """Exact rational evaluation was requested where it cannot be provided."""


def _to_fraction(x) -> Fraction:
    """The one rule by which a number enters rational arithmetic: an int
    or a Fraction as it is, a float at its exact binary value.

    A float is not read as the decimal it was typed as (``0.1`` enters
    as ``3602879701896397/36028797018963968``), so an exact computation
    decides what a float computation would be handed, with no doubt
    left about what was computed.  ``evaluate_exact`` applies the same
    rule to attachment weights.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, numbers.Rational):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ExactUnavailable(f"non-finite parameter {x!r}")
        return Fraction(x)
    raise ExactUnavailable(f"cannot take {type(x).__name__} exactly")


def _require_finite(name: str, x) -> None:
    # NaN fails every comparison, so a range check alone lets it through;
    # an infinite parameter would feed inf or NaN weights to the index
    if x != x or x == math.inf or x == -math.inf:
        raise ValueError(f"{name} must be finite, got {x!r}")


@dataclass(frozen=True)
class Affine:
    base: object
    slope: object

    def __post_init__(self):
        _require_finite("affine base", self.base)
        _require_finite("affine slope", self.slope)
        if self.base < 0 or self.slope < 0:
            raise ValueError("affine attachment weights must stay nonnegative")

    def evaluate(self, d: int) -> float:
        return float(self.base) + float(self.slope) * d

    def evaluate_exact(self, d: int) -> Fraction:
        return _to_fraction(self.base) + _to_fraction(self.slope) * d

    def increment_bounds(self):
        s = _to_fraction(self.slope)
        return s, s

    def has_hole(self) -> bool:
        return self.base == 0

    def describe(self) -> str:
        return f"affine({self.base}, {self.slope})"


@dataclass(frozen=True)
class PowerShifted:
    base: object
    exponent: object

    def __post_init__(self):
        _require_finite("power base", self.base)
        _require_finite("power exponent", self.exponent)
        if self.base < 0:
            raise ValueError("power attachment needs a nonnegative base")
        if self.exponent < 0:
            raise ValueError("power attachment needs a nonnegative exponent")

    def evaluate(self, d: int) -> float:
        return float(self.base) * float(d + 1) ** float(self.exponent)

    def evaluate_exact(self, d: int) -> Fraction:
        """``a(d)`` under the rule of :func:`_to_fraction`: with an
        integral exponent, the rational power of the exact base; with
        any other, the binary value of the float weight :meth:`evaluate`
        gives, the weight the engine draws with."""
        e = self.exponent
        if e != int(e):
            return Fraction(self.evaluate(d))
        return _to_fraction(self.base) * Fraction(d + 1) ** int(e)

    def increment_bounds(self):
        """Increments of base*(d+1)^e are monotone in d: increasing for
        e > 1 (sup is unbounded), decreasing toward 0 for e < 1."""
        e = self.exponent
        first = self.evaluate_exact(1) - self.evaluate_exact(0)
        if e > 1:
            return first, math.inf
        if e == 1:
            return first, first
        return Fraction(0), first

    def has_hole(self) -> bool:
        return self.base == 0

    def describe(self) -> str:
        return f"power({self.base}, {self.exponent})"


@dataclass(frozen=True)
class TableAttachment:
    values: tuple
    tail_slope: object

    def __post_init__(self):
        values = tuple(self.values)
        object.__setattr__(self, "values", values)
        if not values:
            raise ValueError("table attachment needs at least one entry")
        for i, v in enumerate(values):
            _require_finite(f"table value {i}", v)
        _require_finite("table tail slope", self.tail_slope)
        if any(v < 0 for v in values) or self.tail_slope < 0:
            raise ValueError("table attachment weights must stay nonnegative")

    def evaluate(self, d: int) -> float:
        vs = self.values
        if d < len(vs):
            return float(vs[d])
        return float(vs[-1]) + float(self.tail_slope) * (d - len(vs) + 1)

    def evaluate_exact(self, d: int) -> Fraction:
        vs = self.values
        if d < len(vs):
            return _to_fraction(vs[d])
        return _to_fraction(vs[-1]) + _to_fraction(self.tail_slope) * (d - len(vs) + 1)

    def increment_bounds(self):
        vs = [_to_fraction(v) for v in self.values]
        incs = [b - a for a, b in zip(vs, vs[1:])]
        incs.append(_to_fraction(self.tail_slope))
        return min(incs), max(incs)

    def has_hole(self) -> bool:
        return any(v == 0 for v in self.values)

    def describe(self) -> str:
        head = ", ".join(str(v) for v in self.values)
        return f"table({head}; {self.tail_slope})"


def preferential() -> Affine:
    return Affine(1, 1)


def uniform() -> Affine:
    return Affine(1, 0)


# -- parent-count law ------------------------------------------------------

class ParentCountLaw:
    """Distribution of the number of parent edges a new node draws.

    Finite support on positive integers: the counts of positive mass, so
    a count given with probability zero is validated and then dropped,
    and ``{1: 0, 2: 1}`` is ``const(2)``.  Keeps the pmf as given (ints,
    floats or Fractions), a float cumulative table for sampling, and the
    handful of moments the threshold formulas use.
    """

    __slots__ = ("support", "probs", "cum")

    def __init__(self, pmf: dict):
        if not pmf:
            raise ValueError("empty parent-count pmf")
        support = sorted(pmf)
        probs = [pmf[m] for m in support]
        for m in support:
            if isinstance(m, bool) or not isinstance(m, int) or m < 1:
                raise ValueError(f"parent counts must be integers >= 1, got {m!r}")
        for m, p in zip(support, probs):
            if isinstance(p, bool) or not isinstance(
                    p, (numbers.Rational, float)):
                raise ValueError(f"parent-count probability of {m} must be "
                                 f"an int, float or Fraction, got {p!r}")
            _require_finite(f"parent-count probability of {m}", p)
        if any(p < 0 for p in probs):
            raise ValueError("negative probability in parent-count pmf")
        total = sum(float(p) for p in probs)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"parent-count pmf sums to {total}, not 1")
        self.support = [m for m, p in zip(support, probs) if p != 0]
        self.probs = [p for p in probs if p != 0]
        cum, acc = [], 0.0
        for p in self.probs:
            acc += float(p)
            cum.append(acc)
        cum[-1] = 1.0
        self.cum = cum

    @classmethod
    def const(cls, m: int) -> "ParentCountLaw":
        return cls({m: 1})

    @property
    def min(self) -> int:
        return self.support[0]

    @property
    def max(self) -> int:
        return self.support[-1]

    def mean_exact(self) -> Fraction:
        return sum((Fraction(m) * _to_fraction(p)
                    for m, p in zip(self.support, self.probs)), Fraction(0))

    def mean_reciprocal_exact(self) -> Fraction:
        return sum((_to_fraction(p) / m
                    for m, p in zip(self.support, self.probs)), Fraction(0))

    def items_exact(self):
        return [(m, _to_fraction(p)) for m, p in zip(self.support, self.probs)]


# -- weighted index --------------------------------------------------------

def _top_bit(capacity: int) -> int:
    """The largest power of two not above ``capacity``: the first step
    of a Fenwick descent."""
    return 1 << (capacity.bit_length() - 1)


class WeightIndex:
    """Fenwick tree over per-node weights for O(log n) weighted selection.

    Kept deliberately plain: 1-based internal tree, capacity doubling, a
    maintained running total, and a deterministic fallback scan when float
    drift lands a draw on a zero-weight slot.  The accelerated engine
    carries a field-for-field copy of this structure, and trajectories are
    compared across the two, so every operation here is the reference.

    A whole index is laid out at once by :meth:`_build`, for a fresh
    index (:func:`weight_index_for`) and on regrowth: no per-node Python
    work, and the same floats, bit for bit, as one :meth:`append` per
    weight.  The kernel lays its index out by the same left folds, so
    that equality is what keeps the two backends, and every draw,
    unchanged; see :meth:`_build` for why no ``sum`` may enter it.
    """

    __slots__ = ("size", "capacity", "top", "tree", "weights", "total",
                 "positive")

    def __init__(self, capacity: int = 1024):
        self.size = 0
        self.capacity = max(1, capacity)
        self.top = _top_bit(self.capacity)
        self.tree = [0.0] * (self.capacity + 1)
        self.weights = [0.0] * self.capacity
        self.total = 0.0
        self.positive = 0

    def __bool__(self) -> bool:
        """True while some weight is positive: while a weighted pick has
        a node to land on."""
        return self.positive > 0

    def _grow(self, need: int) -> None:
        cap = self.capacity
        while cap < need:
            cap *= 2
        self._build(self.weights[:self.size], cap)

    def _build(self, weights, capacity: int) -> None:
        """Lay out ``weights`` at ``capacity``, bit for bit as appending
        them one at a time in id order would.

        Appends add each nonzero weight into the slots above it in id
        order, so slot ``tree[j]``, whose lowest set bit is ``L``, holds
        the left fold ``((0.0 + w[j-L]) + ...) + w[j-1]``; the zeros they
        skip would add nothing.  Each tree level folds its blocks with
        ``np.add.accumulate``, which adds in sequence, and the total is
        the sequential fold of all weights.  No reduction may stand in
        for these folds: ``np.sum`` and ``np.add.reduce`` add pairwise,
        ``math.fsum`` rounds once from the exact sum, and the built-in
        ``sum`` compensates float sums from Python 3.12 on, and each
        would change the bits the kernel and every draw depend on.
        """
        w = np.asarray(weights, dtype=float) + 0.0   # -0.0 is skipped as 0.0
        n = len(w)
        top = _top_bit(capacity)
        padded = np.zeros(2 * top)
        padded[:n] = w
        tree = np.zeros(capacity + 1)
        span = 1
        while span <= capacity:
            # slots span, 3*span, 5*span, ... up to capacity; the ones
            # whose block starts at or past n stay 0.0
            rows = min(-(-n // (2 * span)), (capacity // span + 1) // 2)
            blocks = padded[:2 * span * rows].reshape(rows, 2 * span)
            tree[span::2 * span][:rows] = np.add.accumulate(
                blocks[:, :span], axis=1)[:, -1]
            span *= 2
        self.size = n
        self.capacity = capacity
        self.top = top
        self.tree = tree.tolist()
        self.weights = w.tolist() + [0.0] * (capacity - n)
        self.total = float(np.add.accumulate(w)[-1]) if n else 0.0
        self.positive = int(np.count_nonzero(w > 0))

    def append(self, weight: float) -> int:
        i = self.size
        if i >= self.capacity:
            self._grow(i + 1)
        self.size = i + 1
        if weight:
            tree = self.tree
            capacity = self.capacity
            j = i + 1
            while j <= capacity:
                tree[j] += weight
                j += j & -j
            self.weights[i] = weight
            self.total += weight
            if weight > 0:
                self.positive += 1
        return i

    def set_weight(self, i: int, weight: float) -> None:
        weights = self.weights
        old = weights[i]
        if weight == old:
            return
        delta = weight - old
        tree = self.tree
        capacity = self.capacity
        j = i + 1
        while j <= capacity:
            tree[j] += delta
            j += j & -j
        weights[i] = weight
        self.total += delta
        if (old > 0) != (weight > 0):
            self.positive += 1 if weight > 0 else -1

    def prefix(self, i: int) -> float:
        """Sum of weights[0..i-1]."""
        acc = 0.0
        while i > 0:
            acc += self.tree[i]
            i -= i & (-i)
        return acc

    def select(self, x: float) -> int:
        """Largest prefix not exceeding ``x``: the node whose weight span
        contains ``x``.  Callers pass x = u * total for u in [0, 1)."""
        tree = self.tree
        capacity = self.capacity
        pos = 0
        mask = self.top
        rem = x
        while mask:
            nxt = pos + mask
            if nxt <= capacity and tree[nxt] <= rem:
                pos = nxt
                rem -= tree[nxt]
            mask >>= 1
        if pos >= self.size:
            pos = self.size - 1
        # float drift or trailing zero weights can strand the draw; walk to
        # the nearest positive slot in a fixed direction so both engine
        # backends resolve the tie the same way
        if self.weights[pos] <= 0:
            j = pos + 1
            while j < self.size and self.weights[j] <= 0:
                j += 1
            if j >= self.size:
                j = pos - 1
                while j >= 0 and self.weights[j] <= 0:
                    j -= 1
            if j < 0:
                raise AllWeightsZero("no positive attachment weight to select")
            pos = j
        return pos


def extend_table(table: list, attach, d: int) -> float:
    """The per-degree weight table the engines keep, ``table[j] ==
    float(attach.evaluate(j))``, extended through degree ``d``: one
    ``evaluate`` per missing degree, in increasing order, as the
    kernel's ``aval`` fills.  Returns ``table[d]``."""
    for j in range(len(table), d + 1):
        table.append(float(attach.evaluate(j)))
    return table[d]


def _node_weights(state, attach, table=None) -> np.ndarray:
    """Every node's attachment weight in id order; PF nodes get 0.0.

    The weights come from the per-degree table ``table`` (a fresh list
    when none is given), filled by :func:`extend_table` up to the
    largest live degree, as the kernel's ``aval`` is at construction.
    The two columns are read by ``bytes`` and ``np.fromiter``, which
    cost about half of ``np.asarray`` on a list.
    """
    n = len(state.labels)
    live = np.frombuffer(bytes(state.labels), dtype=np.uint8) != PF
    deg = np.fromiter(state.deg_pt, dtype=np.int64, count=n)[live]
    table = [] if table is None else table
    top = int(deg.max(initial=-1))
    if top >= 0:
        extend_table(table, attach, top)
    weights = np.zeros(n)
    weights[live] = np.array(table, dtype=float)[deg]
    return weights


def weight_index_for(state, attach, table=None) -> WeightIndex:
    """Fresh index over all current nodes; PF nodes get weight 0.

    :meth:`WeightIndex._build` lays the weights out with a few numpy
    passes per tree level instead of one ``append`` per node.  The index
    is bit for bit the one those appends would build.  A ``table`` given
    is the caller's per-degree table, which the call fills (see
    :func:`_node_weights`) for the caller's later updates.
    """
    weights = _node_weights(state, attach, table)
    idx = WeightIndex(capacity=max(1024, len(weights)))
    idx._build(weights, idx.capacity)
    return idx


class PrefixPool:
    """Weighted picks from weights that never change: their prefix sums
    in id order, searched by bisection.

    It offers what a weighted pick reads of a :class:`WeightIndex`
    (``total``, :meth:`select` and truth) with no tree to build, for a
    caller that changes no weight between picks, such as the Monte
    Carlo drift.  The prefix sums are one left fold, as
    :meth:`WeightIndex._build` takes the total, so ``total`` is the
    index's bit for bit.  Where every prefix sum is exact (integer
    weights with a total below 2**53, such as :func:`preferential`'s)
    :meth:`select` returns what :meth:`WeightIndex.select` does.  Where
    they round, the picks keep the law: a pick can differ only when
    ``x`` lies within rounding of a weight boundary.
    """

    __slots__ = ("cum", "total", "last")

    def __init__(self, weights: np.ndarray):
        cum = np.add.accumulate(weights)
        # a byte copy: tolist would make a Python float per node, which
        # costs more than a short call's picks win back by bisecting a list
        self.cum = array("d", cum.tobytes())
        self.total = float(cum[-1]) if len(cum) else 0.0
        live = np.flatnonzero(weights > 0)
        # the last positive-weight node, -1 when there is none
        self.last = int(live[-1]) if len(live) else -1

    def __bool__(self) -> bool:
        """True while some weight is positive."""
        return self.last >= 0

    def select(self, x: float) -> int:
        """The first node whose prefix sum exceeds ``x``, which has a
        positive weight since its sum rose past its predecessor's.
        Callers pass x = u * total for u in [0, 1); an ``x`` at or past
        ``total`` gives the last positive-weight node, as
        :meth:`WeightIndex.select`'s downward walk does."""
        i = bisect_right(self.cum, x)
        if i <= self.last:
            return i
        if self.last < 0:
            raise AllWeightsZero("no positive attachment weight to select")
        return self.last


def prefix_pool_for(state, attach) -> PrefixPool:
    """A :class:`PrefixPool` over all current nodes; PF nodes get weight
    0, as in :func:`weight_index_for`."""
    return PrefixPool(_node_weights(state, attach))


# -- exact distributions ---------------------------------------------------

def parent_distribution(state, attach) -> dict:
    """Exact selection pmf {pt node id: Fraction}, from the weights
    ``attach.evaluate_exact`` gives.

    Raises :class:`AllPF` when no PT node exists and :class:`AllWeightsZero`
    when all PT weights vanish, matching what the sampler would hit.
    """
    weights = {}
    for v in range(len(state.labels)):
        if state.labels[v] == PF:
            continue
        weights[v] = attach.evaluate_exact(state.deg_pt[v])
    if not weights:
        raise AllPF("state has no PT nodes")
    total = sum(weights.values())
    if total == 0:
        raise AllWeightsZero("all PT attachment weights are zero")
    return {v: w / total for v, w in weights.items() if w != 0}


def sample_combination(law: ParentCountLaw, chooser) -> int:
    return law.support[chooser.pmf_index(law)]
