"""Attachment weight families, the parent-count law, and weighted parent
selection.

A prospective parent with ``d`` PT child edges is drawn with probability
proportional to ``a(d)``.  Two families cover the regimes of interest:

* ``TableAttachment(values, tail_slope)``: an explicit head, then the
  affine tail ``values[-1] + tail_slope*(d - len + 1)``.  A one-entry
  table is the affine rule ``a(d) = base + slope*d``: :func:`uniform` is
  ``TableAttachment((1,), 0)`` and :func:`preferential` is
  ``TableAttachment((1,), 1)``.  Zeros in the head create degree holes
  that freeze nodes out of the parent pool.
* ``PowerShifted(base, exponent)``: ``a(d) = base * (d+1)**exponent``,
  superlinear for exponent > 1.

Every family reports increment bounds (inf and sup of ``a(d+1) - a(d)``)
as Fractions under the rule of :func:`_to_fraction`, ``math.inf`` for an
unbounded sup, and whether any weight is zero; the theorem predicates
decide regularity from those, exactly.

The package's number rule lives here too, beside :func:`_to_fraction`:
every integer argument (a depth, budget, count, horizon, seed or cap)
passes :func:`_require_int`, and every real one (a rate, weight
parameter, probability or distance base) :func:`_require_real`, by
name, where its object is built or its call starts.  So a bad number
fails loudly before any work, and an exact computation meets none it
cannot take.
"""

from __future__ import annotations

import math
import numbers
from array import array
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .state import PF, _count_column, _label_bytes


class AllWeightsZero(RuntimeError):
    """PT nodes exist but every attachment weight is zero; growth is stuck."""


def _to_fraction(x) -> Fraction:
    """The one rule by which a number enters rational arithmetic: an int
    or a Fraction as it is, a float at its exact binary value.

    A float is not read as the decimal it was typed as (``0.1`` enters
    as ``3602879701896397/36028797018963968``), so an exact computation
    decides what a float computation would be handed, with no doubt
    left about what was computed.  ``evaluate_exact`` applies the same
    rule to attachment weights.  Every number argument was checked by
    :func:`_require_real` when its object was built, so nothing else
    arrives here.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (numbers.Rational, float)):
        return Fraction(x)
    raise TypeError(f"cannot take {type(x).__name__} exactly")


# what _require_int's low asks for, by name
_INTEGER = {None: "an integer", 0: "a non-negative integer",
            1: "a positive integer"}


def _require_int(name: str, x, low=None) -> int:
    """``x`` as an ``int``: any ``numbers.Integral`` but a bool, numpy
    integers included, and at least ``low`` (None, 0 or 1) when given.
    Anything else raises ``ValueError`` naming ``name``.  The plain int
    keeps arithmetic such as a move count's power from wrapping."""
    what = _INTEGER[low]
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise ValueError(f"{name} must be {what}, got {x!r} of type "
                         f"{type(x).__name__}")
    if low is not None and x < low:
        raise ValueError(f"{name} must be {what}, got {x!r}")
    return int(x)


def _require_real(name: str, x) -> None:
    """Refuse, with ``ValueError`` naming ``name``, anything
    :func:`_to_fraction` would not take: a real is an int, a
    ``numbers.Rational`` (numpy integers and Fractions included) or a
    finite float, not a bool.  A NaN fails every comparison, so a range
    check alone would let it through, and an infinite parameter would
    feed inf or NaN weights to the index."""
    if isinstance(x, bool) or not isinstance(x, (numbers.Rational, float)):
        raise ValueError(f"{name} must be a real number, got {x!r} of type "
                         f"{type(x).__name__}, not an int, Fraction or "
                         f"float")
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")


@dataclass(frozen=True)
class PowerShifted:
    base: object
    exponent: object

    def __post_init__(self):
        _require_real("power base", self.base)
        _require_real("power exponent", self.exponent)
        if self.base < 0:
            raise ValueError("power attachment needs a nonnegative base")
        if self.exponent < 0:
            raise ValueError("power attachment needs a nonnegative exponent")

    def evaluate(self, d: int) -> float:
        return float(self.base) * float(d + 1) ** float(self.exponent)

    def evaluate_exact(self, d: int) -> Fraction:
        """``a(d)`` under the rule of :func:`_to_fraction`: with an
        integral exponent, the rational power of the exact base; with
        any other, the binary value of the float weight the engines draw
        with, :func:`attachment_weight`'s."""
        e = self.exponent
        if e != int(e):
            return Fraction(attachment_weight(self, d))
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
            _require_real(f"table value {i}", v)
        _require_real("table tail slope", self.tail_slope)
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


def preferential() -> TableAttachment:
    return TableAttachment((1,), 1)


def uniform() -> TableAttachment:
    return TableAttachment((1,), 0)


# -- parent-count law ------------------------------------------------------

class ParentCountLaw:
    """Distribution of the number of parent edges a new node draws.

    Finite support on positive integers, held as plain ints: the counts
    of positive mass, so a count given with probability zero is
    validated and then dropped, and ``{1: 0, 2: 1}`` is ``const(2)``.  Keeps the pmf as given (ints,
    floats or Fractions), a float cumulative table for sampling, and the
    handful of moments the threshold formulas use.
    """

    __slots__ = ("support", "probs", "cum")

    def __init__(self, pmf: dict):
        if not pmf:
            raise ValueError("empty parent-count pmf")
        counts = {_require_int("each of the parent counts", m, 1): p
                  for m, p in pmf.items()}
        support = sorted(counts)
        probs = [counts[m] for m in support]
        for m, p in zip(support, probs):
            _require_real(f"parent-count probability of {m}", p)
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

class WeightIndex:
    """Fenwick tree over per-node weights for O(log n) weighted selection.

    Kept deliberately plain: 1-based internal tree, a power-of-two
    capacity that doubles, a maintained running total, and a
    deterministic fallback scan when float drift lands a draw on a
    zero-weight slot.  The accelerated engine carries a field-for-field
    copy of this structure but for ``weights``, which it reads from its
    node records as ``a(deg_pt)`` (``0.0`` for a PF node, ``-0.0`` as
    ``0.0``) instead of storing them.  Trajectories are compared across
    the two, so every operation here is the reference.  A total past the
    float range would make every draw ``u * inf``, so wherever a total
    is formed one that is not finite raises ``ValueError`` by name
    (:func:`_finite_total`), with the text the kernel uses.

    A fresh index is laid out at once by :meth:`_build`
    (:func:`weight_index_for`), bit for bit as one :meth:`append` per
    weight and as the kernel's layout.  A regrowth (:meth:`_grow`) keeps
    every slot and appends empty ones.
    """

    __slots__ = ("size", "capacity", "tree", "weights", "total", "positive")

    def __init__(self, capacity: int = 1024):
        self.size = 0
        # the least power of two not below the capacity asked for
        self.capacity = 1 << (max(1, capacity) - 1).bit_length()
        self.tree = [0.0] * (self.capacity + 1)
        self.weights = [0.0] * self.capacity
        self.total = 0.0
        self.positive = 0

    def __bool__(self) -> bool:
        """True while some weight is positive: while a weighted pick has
        a node to land on."""
        return self.positive > 0

    def _grow(self) -> None:
        """Double the capacity of a full index.  A new slot's block lies
        past every weight but the new root's, which holds them all, as
        the old root does: each update that reached the old root would
        have gone on to it.  So the old slots, the total and the positive
        count stay as they are, and the regrowth adds nothing."""
        cap = self.capacity
        self.tree += [0.0] * cap
        self.tree[2 * cap] = self.tree[cap]
        self.weights += [0.0] * cap
        self.capacity = 2 * cap

    def _build(self, weights) -> None:
        """Lay out ``weights``, at most the capacity of them, in a fresh
        index, bit for bit as appending them one at a time in id order
        would.

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
        # an overflowing fold is refused below, by name, not warned of
        with np.errstate(over="ignore"):
            total = _finite_total(float(np.add.accumulate(w)[-1])
                                  if n else 0.0)
        capacity = self.capacity
        padded = np.zeros(2 * capacity)
        padded[:n] = w
        tree = np.zeros(capacity + 1)
        span = 1
        while span <= capacity:
            # slots span, 3*span, 5*span, ... whose blocks start below n;
            # the rest stay 0.0
            rows = -(-n // (2 * span))
            blocks = padded[:2 * span * rows].reshape(rows, 2 * span)
            tree[span::2 * span][:rows] = np.add.accumulate(
                blocks[:, :span], axis=1)[:, -1]
            span *= 2
        self.size = n
        self.tree = tree.tolist()
        self.weights = w.tolist() + [0.0] * (capacity - n)
        self.total = total
        self.positive = int(np.count_nonzero(w > 0))

    def append(self, weight: float) -> int:
        i = self.size
        if i >= self.capacity:
            self._grow()
        self.size = i + 1
        if weight:
            tree = self.tree
            capacity = self.capacity
            j = i + 1
            while j <= capacity:
                tree[j] += weight
                j += j & -j
            self.weights[i] = weight
            self.total = _finite_total(self.total + weight)
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
        self.total = _finite_total(self.total + delta)
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
        mask = capacity
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


def _finite_total(total: float) -> float:
    """``total``, a weight index's or pool's, refused with ``ValueError``
    when it is not finite: every weight may be finite while their sum
    overflows."""
    if not math.isfinite(total):
        raise ValueError(f"attachment weight total is {total}, not finite")
    return total


def attachment_weight(attach, d: int) -> float:
    """``a(d)`` as both engines draw with it: ``float(attach.evaluate(d))``.

    The one place a float weight is read: :func:`extend_table` fills
    the Python engine's table through it, and the kernel's ``aval``
    calls it back.  A weight that is not finite, or an ``evaluate``
    that overflows, raises ``ValueError`` naming the degree and the
    value, so both backends refuse it with the same text instead of
    drawing on an inf or NaN total."""
    try:
        weight = float(attach.evaluate(d))
    except OverflowError as exc:
        raise ValueError(f"attachment weight at degree {d} overflows the "
                         f"float range ({exc})") from None
    if not math.isfinite(weight):
        raise ValueError(f"attachment weight at degree {d} is {weight}, "
                         f"not finite")
    return weight


def extend_table(table: list, attach, d: int) -> float:
    """The per-degree weight table the engines keep, ``table[j] ==
    attachment_weight(attach, j)``, extended through degree ``d``: one
    weight per missing degree, in increasing order, as the kernel's
    ``aval`` fills.  Returns ``table[d]``."""
    for j in range(len(table), d + 1):
        table.append(attachment_weight(attach, j))
    return table[d]


def _node_weights(state, attach, labels, table=None) -> np.ndarray:
    """Every node's attachment weight in id order; PF nodes get 0.0.

    ``labels`` is the label column as :func:`state._label_bytes` reads
    it, which a drift oracle's set-up shares with its distance pass.
    The weights come from the per-degree table ``table`` (a fresh list
    when none is given), filled by :func:`extend_table` up to the
    largest live degree, as the kernel's ``aval`` is at construction.
    ``deg_pt`` is read whole by one ``struct.pack`` into an int64 view
    (:func:`state._count_column`), which refuses an entry that is not a
    non-negative 64-bit integer with a ``StateError`` naming its node.
    """
    n = len(labels)
    live = labels != PF
    deg = _count_column(state.deg_pt, "deg_pt")[live]
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
    weights = _node_weights(state, attach, _label_bytes(state), table)
    idx = WeightIndex(capacity=max(1024, len(weights)))
    idx._build(weights)
    return idx


class PrefixPool:
    """Weighted picks from weights that never change: their prefix sums
    in id order, searched by bisection.

    It offers what a weighted pick reads of a :class:`WeightIndex`
    (``total``, :meth:`select` and truth) with no tree to build, for a
    caller that changes no weight between picks, such as the Monte
    Carlo drift.  The prefix sums are one left fold, as
    :meth:`WeightIndex._build` takes the total, so ``total`` is the
    index's bit for bit, and refused as the index's is when it is not
    finite.  Where every prefix sum is exact (integer weights with a
    total below 2**53, such as :func:`preferential`'s) :meth:`select`
    returns what :meth:`WeightIndex.select` does.  Where they round, the
    picks keep the law: a pick can differ only when ``x`` lies within
    rounding of a weight boundary.
    """

    __slots__ = ("cum", "total", "last")

    def __init__(self, weights: np.ndarray):
        with np.errstate(over="ignore"):
            cum = np.add.accumulate(weights)
        self.total = _finite_total(float(cum[-1]) if len(cum) else 0.0)
        # a byte copy: tolist would make a Python float per node, which
        # costs more than a short call's picks win back by bisecting a list
        self.cum = array("d", cum.tobytes())
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


# -- exact distributions ---------------------------------------------------

def parent_distribution(state, attach) -> dict:
    """Exact selection pmf {pt node id: Fraction}, from the weights
    ``attach.evaluate_exact`` gives, over the nodes of positive weight.

    It is empty, and falsy, when no PT node exists or every PT weight is
    zero, as a :class:`WeightIndex` or :class:`PrefixPool` is falsy when
    no weight is positive: a step drawn on it stops.

    ``evaluate_exact`` runs once per distinct PT degree, in the order
    the degrees first appear by id, so one that raises is the one a
    pass node by node would meet first; the total is a count-weighted
    sum, and each distinct positive weight is divided by it once.
    """
    deg_pt = state.deg_pt
    live = [v for v, label in enumerate(state.labels) if label != PF]
    degrees = [deg_pt[v] for v in live]
    counts = Counter(degrees)
    weight = {d: attach.evaluate_exact(d) for d in counts}
    total = sum(w * counts[d] for d, w in weight.items())
    shares: dict = {}           # positive weight -> its share
    share: dict = {}            # degree -> its nodes' share
    for d, w in weight.items():
        if w > 0:
            part = shares.get(w)
            if part is None:
                part = shares[w] = w / total
            share[d] = part
    return {v: share[d] for v, d in zip(live, degrees) if d in share}

