"""Randomness plumbing: seed derivation and the chooser abstraction.

Checking mechanisms and the growth step never touch an rng directly; they
ask a chooser for decisions.  Two implementations share the interface:

* :class:`SimChooser` draws from a PCG64 stream (the live simulation and
  the Monte Carlo drift).
* :class:`PathChooser` replays a prescribed decision path; past its end
  it takes each decision's first option and records the others as
  forks.  Tests script code paths with it, and the drift oracle
  enumerates every probabilistic branch of a step exactly by replaying
  each fork once.  It builds the option table of each decision object
  once, in ints, so a fork multiplies ints and a replay does no
  rational arithmetic.

A seed follows the package's integer rule, ``attachment._require_int``,
with low 0: any non-negative integer, a numpy integer or one of 2**64
or more included.  :func:`pcg64` builds its bit generator and refuses a
bool, a non-integer or a negative seed by name.  The live chooser and
the compiled kernel both seed through it, so the engines accept the
same seeds.

The two draw from different pools for a weighted parent pick: the live
chooser from the engine's :class:`attachment.WeightIndex` or the Monte
Carlo drift's :class:`attachment.PrefixPool`, the replaying one from
the exact selection pmf.

Degenerate coins, uniform indices and parent-count laws (probability 0
or 1, a single alternative) are resolved without a decision by both, so
a decision path means the same thing everywhere and the accelerated
engine can reproduce the stream draw-for-draw.  The live chooser reads
a coin's probability as a float, as the kernel does, so a rate that
rounds to 0.0 or 1.0 is degenerate there; the replaying one reads it
exactly.  A live weighted pick always consumes a uniform, as the
kernel's does; a replayed pick from a one-entry pmf is no decision.

The live chooser reads its uniforms in blocks of :data:`BLOCK`, one
``Generator.random(BLOCK)`` call each.  The values are the ones a
``random()`` call per uniform gives, and the kernel's draws, so the
blocks change no decision.  The generator's state moves a block at a
time; :attr:`SimChooser.draws` counts the uniforms consumed.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import numpy as np

from .attachment import _require_int, _to_fraction


def derive_seed(base_seed: int, *parts) -> int:
    """Stable 63-bit seed for a named substream (cell index, trial, ...).

    Hash-based rather than arithmetic so neighboring trials never share
    correlated PCG64 states.
    """
    text = "|".join([str(base_seed)] + [str(p) for p in parts])
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


# uniforms per ``Generator.random`` call of a :class:`SimChooser`
BLOCK = 256


def pcg64(seed) -> np.random.PCG64:
    """The PCG64 bit generator of ``seed``, under the one seed rule of
    both engines: :func:`attachment._require_int` with low 0, so a seed
    is a non-negative integer, a numpy integer or one of 2**64 or more
    included, and a bool, a non-integer or a negative integer is refused
    with ``ValueError``, naming the seed.  :class:`SimChooser` builds
    its Generator on it and the compiled kernel calls it for its bit
    generator, so both refuse and accept the same seeds."""
    return np.random.PCG64(_require_int("seed", seed, 0))


def make_generator(seed: int) -> np.random.Generator:
    return np.random.Generator(pcg64(seed))


class SimChooser:
    """Chooser backed by a numpy Generator: the one handed in, or one
    built on a seed by :func:`pcg64`, whose seed rule it follows.

    The uniforms are read in blocks: one ``Generator.random(BLOCK)``
    call fills a list, at the first decision that draws and whenever
    the list runs out, and each decision that draws takes the next
    value from it.  ``Generator.random(n)`` returns the values of ``n``
    successive ``random()`` calls, which are the kernel's draws, so the
    decisions are the ones a call per uniform would give.  A Generator
    handed in is advanced a whole block at a time: it is untouched
    until the first uniform, and ends up to ``BLOCK - 1`` values past
    the last uniform used.  :attr:`draws` counts the uniforms consumed.
    """

    __slots__ = ("gen", "_fill", "_buf", "_pos", "_base")

    def __init__(self, seed_or_gen):
        if isinstance(seed_or_gen, np.random.Generator):
            self.gen = seed_or_gen
        else:
            self.gen = make_generator(seed_or_gen)
        # bound once, so a stand-in later put at ``gen`` is not asked
        # for blocks
        self._fill = self.gen.random
        self._buf: list = []
        self._pos = 0
        self._base = 0      # uniforms in the blocks before ``_buf``

    @property
    def draws(self) -> int:
        """The number of uniforms the decisions have consumed."""
        return self._base + self._pos

    def _refill(self) -> float:
        """The first uniform of a fresh block, taken."""
        self._base += len(self._buf)
        self._buf = buf = self._fill(BLOCK).tolist()
        self._pos = 1
        return buf[0]

    # Each decision below reads the block inline; only the refill is a
    # call, since a helper frame per uniform costs a good part of what
    # the blocks save.

    def maybe(self, p) -> bool:
        """A coin of probability ``p``, decided as the kernel decides it:
        on ``float(p)``, so a rate that rounds to 0.0 or 1.0 is
        degenerate and draws nothing."""
        p = float(p)
        if p <= 0:
            return False
        if p >= 1:
            return True
        try:
            u = self._buf[self._pos]
        except IndexError:
            u = self._refill()
        else:
            self._pos += 1
        return u < p

    def uniform_index(self, n: int) -> int:
        if n == 1:
            return 0
        try:
            u = self._buf[self._pos]
        except IndexError:
            u = self._refill()
        else:
            self._pos += 1
        i = int(u * n)
        return n - 1 if i >= n else i

    def pmf_index(self, law) -> int:
        """Index into the support of a :class:`ParentCountLaw`, read off
        its cumulative table ``law.cum`` (last entry 1.0)."""
        cum = law.cum
        if len(cum) == 1:
            return 0
        try:
            u = self._buf[self._pos]
        except IndexError:
            u = self._refill()
        else:
            self._pos += 1
        for i, c in enumerate(cum):
            if u < c:
                return i
        return len(cum) - 1

    def weighted_index(self, pool) -> int:
        """One positional draw from a :class:`attachment.WeightIndex` or
        a :class:`attachment.PrefixPool`, at ``u * total``.  Always
        consumes a uniform, even when only one candidate exists, so the
        stream stays aligned with the accelerated engine."""
        try:
            u = self._buf[self._pos]
        except IndexError:
            u = self._refill()
        else:
            self._pos += 1
        return pool.select(u * pool.total)


class PathChooser:
    """Replays a prescribed decision list, then opens what lies past it.

    Each decision takes the path's next outcome and checks it against
    the decision's options; an outcome that is not among them raises
    ``ValueError``.  A decision past the end of the path is open: it
    takes its first option into :attr:`path` and the weight ``num /
    den``, and records in :attr:`forks` the ``(path, num, den)`` each
    other option would have given.  Probabilities enter under the rule
    of :func:`attachment._to_fraction` (a float at its binary value).
    Tests feed it hand-picked outcomes and assert :meth:`exhausted`; the
    drift oracle replays each fork once, so every leaf of the decision
    tree costs one run.

    A chooser builds the option table of each decision object (a coin's
    probability, a parent-count law, a pick's pmf, a uniform count) once,
    on first use, and keeps it, so :meth:`replay` on a new path repeats
    no arithmetic: the drift oracle replays one chooser for a whole call.
    A table is all ints (see :func:`_table`), so a fork multiplies ints
    and reads no Fraction.  The objects must not change while a chooser
    is in use.  A one-option decision (a coin of probability 0 or 1, a
    single alternative) is resolved without taking a place on the path.
    """

    __slots__ = ("path", "cursor", "num", "den", "forks", "_tables",
                 "_held", "_shares")

    def __init__(self, path=()):
        self.replay(tuple(path))
        # keyed by identity, since hashing a Fraction costs about as much
        # as building its table; ``_held`` keeps each object alive, so
        # its id is not reused
        self._tables: dict = {}   # id(coin, law or pmf) -> table
        self._held: list = []
        self._shares: dict = {}   # uniform count -> table

    def replay(self, path, num: int = 1, den: int = 1) -> None:
        """Start over on ``path``, of weight ``num / den``."""
        self.path = path
        self.cursor = 0
        self.num = num
        self.den = den
        self.forks: list = []

    def exhausted(self) -> bool:
        """The whole path was taken and no decision was opened."""
        return self.cursor == len(self.path) and not self.forks

    def _take(self, table):
        first, index, num, den, others = table
        if index is None:
            return first
        path = self.path
        cursor = self.cursor
        self.cursor = cursor + 1
        if cursor < len(path):
            try:
                return index[path[cursor]]
            except KeyError:
                raise ValueError(f"prescribed outcome {path[cursor]!r} "
                                 f"not among options") from None
        # open: take the first option and fork the others, in order
        run_num = self.num
        run_den = self.den
        forks = self.forks
        for outcome, n, d in others:
            forks.append((path + (outcome,), run_num * n, run_den * d))
        self.path = path + (first,)
        self.num = run_num * num
        self.den = run_den * den
        return first

    def _build(self, decision, build) -> tuple:
        table = self._tables[id(decision)] = build(decision)
        self._held.append(decision)
        return table

    # Each decision looks its table up inline, so it runs two frames,
    # its own and ``_take``; a table is a nonempty tuple, so ``or``
    # builds only a missing one.

    def maybe(self, p) -> bool:
        return self._take(self._tables.get(id(p))
                          or self._build(p, _coin_table))

    def uniform_index(self, n: int) -> int:
        table = self._shares.get(n)
        if table is None:
            table = self._shares[n] = _share_table(n)
        return self._take(table)

    def pmf_index(self, law) -> int:
        """Index into the support of a :class:`ParentCountLaw`."""
        return self._take(self._tables.get(id(law))
                          or self._build(law, _law_table))

    def weighted_index(self, pmf) -> int:
        """One pick from ``pmf``, a {node id: probability} dict of the
        positive-weight nodes, as :func:`attachment.parent_distribution`
        returns it."""
        return self._take(self._tables.get(id(pmf))
                          or self._build(pmf, _pick_table))


# -- option tables ---------------------------------------------------------
#
# One builder per kind of decision object, each run once per object and
# chooser (the tests count the runs).

def _table(options) -> tuple:
    """The option table of ``[(outcome, probability), ...]``:
    ``(first outcome, index, num, den, others)``.  ``index`` maps each
    outcome to itself, to check a replayed one, and is None for a single
    option, which is no decision; ``num / den`` is the first outcome's
    probability as two ints, and ``others`` holds ``(outcome, num,
    den)`` for each other option, in order."""
    if len(options) == 1:
        return options[0][0], None, 1, 1, ()
    weights = []
    for outcome, p in options:
        q = _to_fraction(p)
        weights.append((outcome, q.numerator, q.denominator))
    first, num, den = weights[0]
    return (first, {outcome: outcome for outcome, _ in options}, num, den,
            tuple(weights[1:]))


def _coin_table(p) -> tuple:
    if p <= 0:
        return _table([(False, 1)])
    if p >= 1:
        return _table([(True, 1)])
    q = _to_fraction(p)
    return _table([(True, q), (False, 1 - q)])


def _law_table(law) -> tuple:
    return _table(list(enumerate(p for _, p in law.items_exact())))


def _pick_table(pmf) -> tuple:
    return _table(list(pmf.items()))


def _share_table(n: int) -> tuple:
    share = Fraction(1, n)
    return _table([(i, share) for i in range(n)])
