"""Per-step process dynamics and the reference engine, pure Python.

A step is, with probability q, an adversarial insertion placed by the
strategy ``Features.adversary`` (no check), and otherwise one round of
grow-label-check:

1. if no PT node has positive attachment weight the process is stopped,
   permanently, with the state frozen;
2. draw a parent count m, then m parents with replacement proportional
   to a(PT degree);
3. the new node is labeled CF with probability epsilon, else CT;
4. the configured mechanism checks the new node and its surroundings,
   and everything it recognizes is flagged PF atomically.

:func:`draw_move` is the one Python transcription of the decisions
before the check (steps 1 to 3 and the adversarial branch).
:meth:`PyEngine.step` plays it live, ``potentials.mc_drift`` samples it
and ``potentials.exact_drift`` enumerates it by replay, so the three
follow one law by construction.  The decision stream (one uniform per
coin or pick, degenerate decisions free) is part of the engine contract:
the compiled kernel replays it draw for draw behind :class:`PyEngine`'s
surface, and trajectory equality across backends is tested.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field

from . import checking
from .attachment import ParentCountLaw, _require_int, _require_real, \
    extend_table, weight_index_for
from .state import (
    CT, CF, PF, LABEL_NAMES, CkpState, pt_false_distances, verify_state,
)


def init_chain(n: int, edge_multiplicity: int, first_label: int) -> CkpState:
    """A path of n nodes; each node after the first hangs from its
    predecessor by ``edge_multiplicity`` parallel edges."""
    n = _require_int("n", n)
    edge_multiplicity = _require_int("edge_multiplicity", edge_multiplicity)
    if n < 1 or edge_multiplicity < 1:
        raise ValueError("chain needs n >= 1 and edge multiplicity >= 1")
    state = CkpState()
    state.add_root(first_label)
    for i in range(1, n):
        state.add_node([i - 1] * edge_multiplicity, CT)
    return state


# -- adversaries -----------------------------------------------------------
#
# A strategy is stateless: ``move(state, features, chooser)`` returns
# ``(parents, label)`` or None to pass, reads the budget r from
# ``features`` and draws from ``chooser``, so one object serves any
# number of steps, samples and replays.

@dataclass(frozen=True)
class DeepAttach:
    """Attach all r edges to the PT False node farthest from any minimal
    false node (ties to the lowest id), labeled CT: the move that pushes
    errors out of checking range."""

    def move(self, state, features, chooser):
        r = features.adversary_budget
        if r == 0:
            return None
        dist = pt_false_distances(state)
        if dist:
            best = max(dist.values())
            target = min(v for v, d in dist.items() if d == best)
        else:
            target = min(state.pt_ids())
        return [target] * r, CT


@dataclass(frozen=True)
class LeafAttach:
    """Attach to up to r distinct CT non-root leaves (lowest ids first),
    labeled CT: each edge costs the process one frontier node."""

    def move(self, state, features, chooser):
        r = features.adversary_budget
        if r == 0:
            return None
        leaves = [v for v, code in enumerate(state.membership(False))
                  if code == 2]
        if leaves:
            return leaves[:r], CT
        return [min(state.pt_ids())], CT


@dataclass(frozen=True)
class RandomPt:
    """r uniform PT picks with replacement, uniformly random label."""

    def move(self, state, features, chooser):
        r = features.adversary_budget
        if r == 0:
            return None
        # with no PF nodes the PT ids are just 0..n-1; skip the O(n) scan
        pt = state.pt_ids() if state.pf_total else range(len(state.labels))
        parents = [pt[chooser.uniform_index(len(pt))] for _ in range(r)]
        label = CF if chooser.uniform_index(2) == 1 else CT
        return parents, label


# -- the process variant ---------------------------------------------------

@dataclass(frozen=True)
class Features:
    """The full parameter vector of one process variant, the adversary's
    strategy included: a fraction ``adversary_rate`` of steps are
    adversarial insertions of at most ``adversary_budget`` edges, placed
    by ``adversary``."""

    attach: object
    parent_count: object
    check_rate: float            # probability a check happens (per edge for
    check_depth: int             # the per-parent mechanisms), and its depth
    mechanism: str
    error_rate: float = 0.0      # chance a new node is born carrying an error
    adversary_rate: float = 0.0  # chance a step is adversarial
    adversary_budget: int = 0    # max parent edges an adversarial node gets
    detection_rate: float = 1.0  # chance an examined CF node reveals itself
    adversary: object = RandomPt()  # strategy of the adversarial steps

    def __post_init__(self):
        if not callable(getattr(self.attach, "evaluate", None)):
            raise ValueError("attach must have a callable evaluate, got "
                             f"{self.attach!r}")
        if not isinstance(self.parent_count, ParentCountLaw):
            raise ValueError("parent_count must be a ParentCountLaw, got "
                             f"{self.parent_count!r}")
        if self.mechanism not in checking.MECHANISMS:
            raise ValueError(f"unknown mechanism {self.mechanism!r}")
        for name in ("check_rate", "error_rate", "adversary_rate",
                     "detection_rate"):
            _require_real(name, getattr(self, name))
        if not 0 <= self.error_rate < 1:
            raise ValueError("error_rate must lie in [0, 1)")
        if not 0 <= self.adversary_rate < 1:
            raise ValueError("adversary_rate must lie in [0, 1)")
        if not 0 <= self.check_rate <= 1:
            raise ValueError("check_rate must lie in [0, 1]")
        if not 0 < self.detection_rate <= 1:
            raise ValueError("detection_rate must lie in (0, 1]")
        for name in ("check_depth", "adversary_budget"):
            object.__setattr__(self, name,
                               _require_int(name, getattr(self, name)))
        if self.check_depth < 1:
            raise ValueError("check_depth must be at least 1")
        if self.adversary_budget < 0:
            raise ValueError("adversary_budget must be nonnegative")
        if not callable(getattr(self.adversary, "move", None)):
            raise ValueError("adversary must have a callable move, got "
                             f"{self.adversary!r}")

    @property
    def simple(self) -> bool:
        """No spontaneous errors, no adversary: the tractable regime where
        every node in a CF-rooted run is hidden-False."""
        return self.error_rate == 0 and self.adversary_rate == 0


# -- one step's decisions --------------------------------------------------

def draw_move(state, features, chooser, pool):
    """Make one step's decisions up to the check, in stream order.

    Returns ``(branch, parents, label)``; ``branch`` is the
    :class:`StepRecord` branch:

    * the adversary coin (probability q) decides first.  On an
      adversarial step the process is ``"stopped"`` if every node is PF;
      otherwise the strategy ``features.adversary`` picks the parents
      and the label (``"adversary"``, no check follows) or passes
      (``None``, ``"adversary-noop"``);
    * on a growth step the process is ``"stopped"`` if ``pool`` holds no
      positive weight; otherwise the parent count, then that many
      weighted picks from ``pool`` with replacement, then the label coin
      (probability epsilon of CF) give a ``"grow"`` move, which the
      caller adds and checks with :func:`checking.run_check`.

    ``pool`` is what ``chooser.weighted_index`` draws from: for a
    :class:`SimChooser` the engine's :class:`WeightIndex`, or the Monte
    Carlo drift's :class:`PrefixPool`, which holds weights no sample
    changes; for a :class:`PathChooser` the selection pmf.  It is falsy
    when no weight is positive.
    ``parents`` and ``label`` are ``None`` on the branches that add no
    node.  The state is read, never changed.
    """
    if chooser.maybe(features.adversary_rate):
        if state.pf_total == len(state.labels):
            return "stopped", None, None
        move = features.adversary.move(state, features, chooser)
        if move is None:
            return "adversary-noop", None, None
        parents, label = move
        return "adversary", list(parents), label
    if not pool:
        return "stopped", None, None
    law = features.parent_count
    m = law.support[chooser.pmf_index(law)]
    parents = [chooser.weighted_index(pool) for _ in range(m)]
    label = CF if chooser.maybe(features.error_rate) else CT
    return "grow", parents, label


# -- step and trajectory records -------------------------------------------

@dataclass(slots=True)
class StepRecord:
    branch: str                  # grow | adversary | adversary-noop | stopped
    node: int | None = None
    label: int | None = None
    parents: list = field(default_factory=list)
    outcome: checking.CheckOutcome | None = None
    stopped: bool = False


@dataclass
class TrialResult:
    seed: int
    horizon: int
    survived_at_horizon: bool
    eliminated_at: int | None
    stopped_at: int | None
    final_counts: dict
    checkpoints: list
    backend: str


class AuditViolation(AssertionError):
    """A structural invariant failed during an audited run."""


class PyEngine:
    """Reference engine: owns a state, its attachment weight index, and
    incrementally maintained membership counts.

    ``member`` holds one code per node, :meth:`CkpState.membership`'s
    code in the mode's sense (0 neither, 1 minimal false, 2 CT non-root
    leaf), and ``member_count`` the number of nodes with each code, so
    per-step checkpoint counts and the survival potential delta are
    O(1).  A new node's code is set once, at birth; after that
    :meth:`_refresh_membership` is the code's and the counts' only
    writer, at construction, for a new node's parents and for a
    marking's nodes and their neighbours.  :meth:`export_bookkeeping`
    hands both, as ``member`` and ``member_count``, to the deep audits
    in the record the kernel exports, which hold them to
    :meth:`CkpState.membership`'s recount.
    ``aval`` is the per-degree weight table the kernel keeps under the
    same name, :func:`attachment.attachment_weight` for d = 0, 1, ...:
    :func:`attachment.weight_index_for` fills it to the largest live
    degree before the index's appends, and a step that reaches a new
    degree extends it (:func:`attachment.extend_table`), so both
    backends ask for the same degrees in the same order, and every
    weight update reads it.  A step calls
    ``CkpState.add_node`` and ``mark_pf``, ``WeightIndex.append``,
    ``set_weight`` and ``select``, and ``checking.run_check`` through
    their class or module attributes, never through a bound method
    cached earlier, so the benchmark tracer that wraps them sees every
    call.
    Adversarial steps play ``features.adversary``.  The kernel's surface
    is this one: :meth:`run`, the exports, and the keyword-only
    ``audit_cheap``, which runs :class:`CheapAudit` in every :meth:`step`.
    Both refuse an initial state that fails :func:`state.verify_state`
    (an unknown label, derived columns out of step, or a broken truth
    rule) with its ``StateError``.
    """

    def __init__(self, features: Features, init_state: CkpState, chooser,
                 *, audit_cheap: bool = False):
        verify_state(init_state)
        self.features = features
        self.state = init_state.copy()
        self.chooser = chooser
        # the per-degree weight table, the kernel's aval, filled before
        # the index's appends so both ask for weights in the same order
        self.aval: list[float] = []
        self.windex = weight_index_for(self.state, features.attach,
                                       self.aval)
        self.stopped = False
        self.step_index = 0
        st = self.state
        n = len(st.labels)
        self.pt_false = sum(1 for v in range(n)
                            if st.labels[v] != PF and st.is_false[v])
        # the codes are set by the rule the steps keep them by
        self.member = [0] * n
        self.member_count = [n, 0, 0]
        self._refresh_membership(range(n))
        self.zero_since = 0 if self.pt_false == 0 else None
        self.pf_child_len: dict[int, int] = {
            v: len(st.children[v]) for v in range(n) if st.labels[v] == PF}
        self.audit = CheapAudit(self) if audit_cheap else None

    # -- bookkeeping ------------------------------------------------------

    def counts(self) -> dict:
        n = len(self.state.labels)
        pf = self.state.pf_total
        return {
            "nodes": n,
            "pt": n - pf,
            "pt_false": self.pt_false,
            "pf": pf,
            "minimal_false": self.member_count[1],
            "leaves": self.member_count[2],
        }

    def export_state(self) -> CkpState:
        """The engine's state itself, not a copy."""
        return self.state

    def export_bookkeeping(self) -> dict:
        """Everything the engine maintains incrementally, as one record:
        the same keys and values as the kernel's ``export_bookkeeping``.
        ``tree`` is the Fenwick array, all capacity + 1 slots.  A weight
        is given as the kernel reads it from its node records, ``-0.0``
        as ``0.0``."""
        windex = self.windex
        return {
            "weights": [float(w) + 0.0 for w in windex.weights[:windex.size]],
            "weight_total": float(windex.total),
            "weight_positive": windex.positive,
            "tree": [float(x) for x in windex.tree],
            "pt_false": self.pt_false,
            "member": list(self.member),
            "member_count": list(self.member_count),
            "zero_since": self.zero_since,
            "stopped": self.stopped,
            "step_index": self.step_index,
            "pf_child_len": dict(self.pf_child_len),
        }

    def _refresh_membership(self, nodes) -> None:
        st = self.state
        labels = st.labels
        pf_parent_edges = st.pf_parent_edges
        # CkpState.membership's rule, inlined: a CT node without a PF
        # parent edge is a leaf when it has no children (simple mode) or
        # no CT child edges
        leaf_blocker = st.children if self.features.simple else st.deg_ct
        member = self.member
        count = self.member_count
        for v in nodes:
            lab = labels[v]
            if lab != CT:
                code = 1 if lab == CF else 0
            elif pf_parent_edges[v]:
                code = 1
            else:
                code = 0 if leaf_blocker[v] else 2
            old = member[v]
            if code != old:
                member[v] = code
                count[old] -= 1
                count[code] += 1

    def _add_node(self, parents, label) -> int:
        st = self.state
        v = st.add_node(parents, label)
        windex = self.windex
        aval = self.aval
        attach = self.features.attach
        deg_pt = st.deg_pt
        # weights refreshed for the distinct parents in id order; a
        # degree past the table extends it, as the kernel's aval does,
        # before the index forms a total, so a weight past the float
        # range is refused by its degree
        ups = parents if len(parents) == 1 else sorted(set(parents))
        for u in ups:
            if deg_pt[u] >= len(aval):
                extend_table(aval, attach, deg_pt[u])
        windex.append(aval[0] if aval else extend_table(aval, attach, 0))
        for u in ups:
            windex.set_weight(u, aval[deg_pt[u]])
        # the new node has no children and no PF parent edge: it is
        # minimal false if CF, else a leaf
        code = 1 if label == CF else 2
        self.member.append(code)
        self.member_count[code] += 1
        if st.is_false[v]:
            self.pt_false += 1
        self._refresh_membership(ups)
        return v

    def _apply_marks(self, marked) -> None:
        st = self.state
        is_false = st.is_false
        marked = sorted(marked)
        for w in marked:
            if not is_false[w]:
                raise AuditViolation(f"check tried to mark True node {w}")
        touched = st.mark_pf(marked)
        windex = self.windex
        aval = self.aval
        children = st.children
        parents = st.parents
        pf_child_len = self.pf_child_len
        affected = set()
        for w in marked:
            windex.set_weight(w, 0.0)
            kids = children[w]
            pf_child_len[w] = len(kids)
            affected.update(kids)
            affected.update(parents[w])
        # a degree only falls here, so the table already holds it
        for u, d in touched.items():
            windex.set_weight(u, aval[d])
        self.pt_false -= len(marked)
        affected.update(marked)
        self._refresh_membership(affected)

    # -- dynamics ---------------------------------------------------------

    def step(self) -> StepRecord:
        if self.stopped:
            return StepRecord("stopped", stopped=True)
        feats = self.features
        self.step_index += 1
        branch, parents, label = draw_move(self.state, feats, self.chooser,
                                           self.windex)
        if branch == "stopped":
            self.stopped = True
            return StepRecord("stopped", stopped=True)
        if branch == "adversary-noop":
            record = StepRecord(branch)
        else:
            v = self._add_node(parents, label)
            outcome = None
            if branch == "grow":
                outcome = checking.run_check(
                    feats.mechanism, self.state, v, feats.check_depth,
                    feats.check_rate, feats.detection_rate, self.chooser)
                if outcome.marked:
                    self._apply_marks(outcome.marked)
            record = StepRecord(branch, v, label, parents, outcome)
        if self.pt_false:
            self.zero_since = None
        elif self.zero_since is None:
            self.zero_since = self.step_index
        if self.audit is not None:
            self.audit.after_step(record)
        return record

    def run(self, horizon: int, checkpoint_steps=(), *,
            trace=None) -> dict:
        """Up to ``horizon`` more steps, with the early exit once the
        outcome can no longer change; returns the trial summary, as the
        kernel's ``run`` does.  ``checkpoint_steps`` are integers, each
        reported under the caller's own object; they count from the start
        of this call, and one past an early exit reports the frozen counts.
        Python only: ``trace`` takes one JSON line per step, numbered by
        the engine's step index.
        """
        pending = sorted(set(checkpoint_steps))
        for step in pending:
            operator.index(step)       # 1.5 or "3" raises the kernel's error
        checkpoints = []
        while pending and pending[0] <= 0:
            checkpoints.append((pending.pop(0), self.counts()))
        for t in range(1, horizon + 1):
            record = self.step()
            if trace is not None:
                trace.write(_trace_line(self.step_index, record, self)
                            + "\n")
            while pending and pending[0] <= t:
                checkpoints.append((pending.pop(0), self.counts()))
            if record.stopped:
                break
            if self.pt_false == 0 and self.features.simple:
                break
        checkpoints += [(step, self.counts()) for step in pending]
        return {
            "survived_at_horizon": self.pt_false > 0,
            "eliminated_at": self.zero_since if self.pt_false == 0 else None,
            "stopped_at": self.step_index if self.stopped else None,
            "final_counts": self.counts(),
            "checkpoints": checkpoints,
        }


# -- per-step cheap audit ----------------------------------------------------

def survival_potential_floor(features: Features) -> int:
    """Largest per-step decrease of |minimal false| + |leaves| that the
    mechanism allows, as a positive number.

    With exact detection a search stops at the first recognized node, so
    at most one minimal false node per search leaves the set; the walk
    mechanism cannot recognize roots en route and may mark several, which
    its depth caps.  Only meaningful when detection is exact, the one
    gate callers apply: a missed recognition lets a search run on.
    Injected errors need no gate, since the caps bound what a step's
    attachment and check remove, whatever the new node's label.
    """
    m_max = features.parent_count.max
    mech = features.mechanism
    if mech == "stringy":
        base = 2 if m_max == 1 else features.check_depth + 1 + m_max
    elif mech in ("bfs", "exhaustive-bfs"):
        base = 1 + m_max
    elif mech == "parentwise-bfs":
        base = 2 * m_max
    else:                      # complete: no fixed cap, resolved per step
        base = 0
    return max(base, features.adversary_budget)


class CheapAudit:
    """Per-step invariants that are O(1) against the engine's counters:
    the bounded decrease of the survival potential, and that every node
    a step marked is PF.  The decrease is checked under exact detection
    alone, where :func:`survival_potential_floor` is a bound; spontaneous
    errors are allowed."""

    def __init__(self, engine: PyEngine):
        self.engine = engine
        features = engine.features
        # the decrease caps rely on every examined minimal false node being
        # recognized, which needs exact detection; injected errors are fine
        # decided on the float, as the kernel and SimChooser.maybe decide
        self.track_delta = float(features.detection_rate) == 1
        self.floor = survival_potential_floor(features)
        # complete can take every marked node out of the minimal false set
        # at once, so on a checked step its cap scales with the marking
        self.mark_slack = (features.parent_count.max + 1
                           if features.mechanism == "complete" else None)
        count = engine.member_count
        self.last_potential = count[1] + count[2]

    def after_step(self, record: StepRecord) -> None:
        eng = self.engine
        if self.track_delta:
            count = eng.member_count
            now = count[1] + count[2]
            floor = self.floor
            if self.mark_slack is not None and record.outcome is not None:
                floor = max(floor,
                            len(record.outcome.marked) + self.mark_slack)
            if now - self.last_potential < -floor:
                raise AuditViolation(
                    f"survival potential fell by {self.last_potential - now} "
                    f"in one step, cap {floor} "
                    f"(mechanism {eng.features.mechanism})")
            self.last_potential = now
        if record.outcome is not None:
            for w in record.outcome.marked:
                if eng.state.labels[w] != PF:
                    raise AuditViolation(f"marked node {w} is not PF")


def _trace_line(t: int, record: StepRecord, engine: PyEngine) -> str:
    entry = {"step": t, "branch": record.branch}
    if record.node is not None:
        entry["node"] = record.node
        entry["label"] = LABEL_NAMES[record.label]
        entry["parents"] = list(record.parents)
    if record.outcome is not None:
        entry["found"] = list(record.outcome.found)
        entry["marked"] = sorted(record.outcome.marked)
    entry["counts"] = engine.counts()
    return json.dumps(entry, sort_keys=True)
