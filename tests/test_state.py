"""DAG state bookkeeping: degrees, membership codes, distances
and the text format."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ckplab.state import (
    CT, CF, PF, CkpState, StateError,
    _count_column, _label_bytes, _pt_false_distances, pt_false_distances,
    dump_state, load_state, verify_state,
)

from reference import anchor_bfs


def bfs_depths(s: CkpState) -> dict[int, int]:
    """The distance oracle: each PT False node's depth under the upward
    BFS of :func:`anchor_bfs`, which shares no code with the id-order
    relaxation of :func:`pt_false_distances`."""
    return {v: anchor_bfs(s, v)[1] for v in range(len(s.labels))
            if s.labels[v] != PF and s.is_false[v]}


def chain(labels, simple=True):
    """Path graph v0 <- v1 <- ... with the given labels."""
    s = CkpState()
    s.add_root(labels[0])
    for i, lab in enumerate(labels[1:], start=1):
        s.add_node([i - 1], lab)
    return s


def test_add_node_updates_degrees_with_multiplicity():
    s = CkpState()
    s.add_root(CT)
    s.add_node([0, 0], CT)
    assert s.deg_pt[0] == 2
    assert s.deg_ct[0] == 2
    s.add_node([0, 1], CF)
    assert s.deg_pt[0] == 3
    assert s.deg_ct[0] == 2      # CF child edge counts toward PT only
    assert s.deg_pt[1] == 1
    assert s.is_false[2]
    assert not s.is_false[1]


def test_truth_inherits_through_any_parent():
    s = CkpState()
    s.add_root(CF)
    s.add_root(CT)
    s.add_node([0, 1], CT)
    s.add_node([1], CT)
    assert s.is_false == [True, False, True, False]
    verify_state(s)


def test_add_node_rejects_pf_parent_and_bad_ids():
    s = chain([CF, CT])
    s.mark_pf([0])
    with pytest.raises(StateError, match="parent 0 is PF"):
        s.add_node([0], CT)
    with pytest.raises(StateError, match="parent id 5 out of range"):
        s.add_node([5], CT)
    with pytest.raises(StateError, match="at least one parent edge"):
        s.add_node([], CT)


def snapshot(s: CkpState) -> tuple:
    return (dump_state(s), [list(c) for c in s.children], list(s.deg_pt),
            list(s.deg_ct), list(s.pf_parent_edges), s.pf_total)


def refusal_state() -> CkpState:
    """0 PF, 1 a root under it, 2 False CT, 3 PF; 4 and 5 True."""
    s = chain([CF, CT, CT, CT])
    s.add_root(CT)
    s.add_node([4], CT)
    s.mark_pf([0])
    s.mark_pf([3])
    return s


@pytest.mark.parametrize("refused,message", [
    (lambda s: s.add_node([1, 0], CT), "parent 0 is PF"),
    (lambda s: s.add_node([1, 7], CT), "parent id 7 out of range"),
    (lambda s: s.add_node([1], PF),
     "new node label must be CT or CF, got 2"),
    (lambda s: s.mark_pf([1, 3]), "node 3 is already PF"),
    (lambda s: s.mark_pf([2, 5]), "refusing to mark hidden-True node 5 PF"),
], ids=["pf-parent", "parent-range", "label", "already-pf", "true"])
def test_refusals_leave_the_state_untouched(refused, message):
    """Each bad input comes after a good one, so a check that ran after
    the first mutation would leave a trace."""
    s = refusal_state()
    before = snapshot(s)
    with pytest.raises(StateError, match=message):
        refused(s)
    assert snapshot(s) == before


def test_pop_last_node_restores_degrees():
    s = CkpState()
    s.add_root(CT)
    s.add_node([0], CT)
    before = (list(s.deg_pt), list(s.deg_ct), [list(p) for p in s.children])
    s.add_node([0, 1, 1], CF)
    s.pop_last_node()
    assert (list(s.deg_pt), list(s.deg_ct),
            [list(p) for p in s.children]) == before
    assert len(s.labels) == 2


def test_pop_last_node_undoes_a_node_marked_pf():
    """The oracles pop a step's node whatever the step did to it: a
    marked new node takes back its parents' child entries and the PF
    count, and the state is the one before the ``add_node``."""
    s = refusal_state()
    before = snapshot(s)
    v = s.add_node([2, 1, 2], CT)
    s.mark_pf([v])
    assert s.pf_total == before[-1] + 1
    s.pop_last_node()
    assert snapshot(s) == before


@pytest.mark.parametrize("build,message", [
    (CkpState, "state is empty"),
    (lambda: chain([CF, CT]), "can only pop a childless node"),
], ids=["empty", "with-child"])
def test_pop_last_node_refuses_by_name(build, message):
    # a last node with a child exists only in a state whose child lists
    # were edited; the refusal comes before any column changes
    s = build()
    if s.labels:
        s.children[-1].append(0)
    before = snapshot(s)
    with pytest.raises(StateError) as err:
        s.pop_last_node()
    assert str(err.value) == message
    assert snapshot(s) == before


def test_mark_pf_updates_counters_and_reports_degrees():
    # 0(CF) <- 1(CT) <- 2(CT), plus 3(CT) also under 1
    s = CkpState()
    s.add_root(CF)
    s.add_node([0], CT)
    s.add_node([1], CT)
    s.add_node([1], CT)
    touched = s.mark_pf([0])
    assert touched == {}                      # 0 had no parents
    assert s.pf_parent_edges[1] == 1
    assert s.membership(True)[1] == 1         # root now
    touched = s.mark_pf([1])
    assert s.labels[1] == PF
    assert s.pf_parent_edges[2] == 1 and s.pf_parent_edges[3] == 1
    assert touched == {}                      # 1's only parent is PF already
    assert s.membership(True) == [0, 0, 1, 1]


def test_add_root_refuses_a_pf_origin():
    s = CkpState()
    with pytest.raises(StateError) as err:
        s.add_root(PF)
    assert err.type is StateError
    assert str(err.value) == f"origin label must be CT or CF, got {PF}"
    assert s.labels == []


def test_mark_pf_refuses_true_nodes():
    s = chain([CT, CT])
    with pytest.raises(StateError):
        s.mark_pf([1])


def test_membership_moves_the_root_down_a_chain():
    # 0(CF) <- 1(CT) <- 2(CT); mark 0: root moves to 1.  A CT node with
    # a PF parent edge is minimal false in both modes, childless or not
    s = chain([CF, CT, CT])
    for simple in (True, False):
        assert s.membership(simple) == [1, 0, 2]
    s.mark_pf([0])
    for simple in (True, False):
        assert s.membership(simple) == [0, 1, 2]
    s.mark_pf([1])
    for simple in (True, False):
        assert s.membership(simple) == [0, 0, 1]


def test_leaves_simple_vs_general_mode():
    # 1 has a CF child and a PF child but no CT child: a leaf in the
    # general mode alone; the CF node is minimal false, the PF one neither
    s = CkpState()
    s.add_root(CT)
    s.add_node([0], CT)       # 1
    s.add_node([1], CF)       # 2, makes 1 non-leaf in simple mode
    s.add_node([1], CF)       # 3, about to become PF
    s.mark_pf([3])
    assert s.membership(True) == [0, 0, 1, 0]
    assert s.membership(False) == [0, 2, 1, 0]
    # a node below a PF parent is never a leaf
    s2 = chain([CF, CT])
    s2.mark_pf([0])
    assert s2.membership(True) == s2.membership(False) == [0, 1]


def test_distances_match_on_handmade_state():
    # diamond: 0(CF) <- 1,2(CT); 3(CT) under 1 and 2
    s = CkpState()
    s.add_root(CF)
    s.add_node([0], CT)
    s.add_node([0], CT)
    s.add_node([1, 2], CT)
    d = pt_false_distances(s)
    assert d == {0: 0, 1: 1, 2: 1, 3: 2}
    assert d == bfs_depths(s)


def test_distances_skip_pt_true_nodes():
    # False chain alongside a True node: True nodes get no distance
    s = CkpState()
    s.add_root(CF)
    s.add_root(CT)
    s.add_node([0, 1], CT)
    d = pt_false_distances(s)
    assert set(d) == {0, 2}
    assert d[2] == 1


def test_distances_refuse_the_lowest_offender():
    # 0 and 3 are hidden True, 1 and 2 PF; 4 and 5 claim an error that
    # neither they (CT) nor a parent carries: 4 is named, not 5
    s = CkpState()
    s.add_root(CT)
    s.add_node([0], CF)           # 1
    s.add_node([1], CT)           # 2, False by descent
    s.mark_pf([1, 2])
    s.add_node([0], CT)           # 3
    s.add_node([0, 3], CT)        # 4
    s.add_node([3], CT)           # 5
    s.is_false[4] = s.is_false[5] = True
    with pytest.raises(StateError) as err:
        pt_false_distances(s)
    assert str(err.value) == \
        "node 4 is PT False, not minimal, with no PT False parent"


@pytest.mark.parametrize("entry", [np.True_, np.False_, 1.0, None, 256])
def test_distances_refuse_a_truth_entry_bytes_cannot_read(entry):
    # every producer writes Python bools; anything else is named by node
    s = chain([CF, CT, CT, CT])
    s.is_false[2] = entry
    s.is_false[3] = entry
    with pytest.raises(StateError) as err:
        pt_false_distances(s)
    assert str(err.value) == \
        f"node 2: is_false {entry!r} is not a Python bool"


def test_count_column_reads_counts_as_int64():
    column = [0, 3, 2**63 - 1, True, np.int64(7)]
    counts = _count_column(column, "deg_pt")
    assert counts.dtype == np.int64
    assert counts.tolist() == [0, 3, 2**63 - 1, 1, 7]
    assert _count_column([], "deg_pt").tolist() == []


@pytest.mark.parametrize("tail", [[5, -3], [5, -3, "y"]],
                         ids=["packs", "unpackable"])
@pytest.mark.parametrize("entry", [1.5, "x", None, 2**70, 2**63, -1])
def test_count_column_refuses_by_lowest_node(entry, tail):
    # node 2 holds the entry under test and node 4 a negative count;
    # with "unpackable", node 5 holds what struct.pack refuses, so the
    # whole column never packs.  Either way node 2 is named
    column = [0, 1, entry, *tail]
    with pytest.raises(StateError) as err:
        _count_column(column, "deg_pt")
    assert str(err.value) == \
        f"node 2: deg_pt {entry!r} is not a non-negative 64-bit integer"


def test_anchor_bfs_prefers_breadth_then_edge_order():
    # 3's parents are (1, 2); 1 leads to CF at depth 2, 2 IS minimal false
    s = CkpState()
    s.add_root(CF)
    s.add_node([0], CT)   # 1
    s.add_node([0], CF)   # 2
    s.add_node([1, 2], CT)
    a, depth, trail = anchor_bfs(s, 3)
    assert (a, depth) == (2, 1)
    assert trail == [3, 2]
    # swap edge order: both parents at depth 1, first edge wins
    s2 = CkpState()
    s2.add_root(CF)
    s2.add_node([0], CF)
    s2.add_node([1, 0], CT)
    a2, _, _ = anchor_bfs(s2, 2)
    assert a2 == 1


def test_dump_load_round_trip_exact():
    s = chain([CF, CT, CT, CT])
    s.add_node([1, 1, 3], CT)
    s.mark_pf([0])
    text = dump_state(s)
    back = load_state(text)
    assert dump_state(back) == text
    assert back.deg_pt == s.deg_pt
    assert back.deg_ct == s.deg_ct
    assert back.pf_parent_edges == s.pf_parent_edges


def test_load_rejects_malformed_documents():
    with pytest.raises(StateError):
        load_state("")
    # a v1 document, with its birth and adversarial fields
    with pytest.raises(StateError, match="bad header 'ckp-state v1 1'"):
        load_state("ckp-state v1 1\n0 CT 0 0 0 -\n")
    with pytest.raises(StateError, match="node count '\\+1' is not an"):
        load_state("ckp-state v2 +1\n0 CT 0 -\n")
    with pytest.raises(StateError):
        load_state("ckp-state v2 2\n0 CT 0 -\n")
    with pytest.raises(StateError):
        load_state("ckp-state v2 1\n0 XX 0 -\n")
    with pytest.raises(StateError):
        load_state("ckp-state v2 2\n0 CT 0 -\n1 CT 0 3\n")


@pytest.mark.parametrize("body,message", [
    ("x CT 1 0\n", "id 'x' is not an integer in line 'x CT 1 0'"),
    ("0 CT 0 -\n1 CT 0 0,y\n", "parent 'y' is not an integer"),
    ("0 CT 0 -\n1 CT 2 0\n",
     "is_false flag '2' is not 0 or 1 in line '1 CT 2 0'"),
    ("0 CT 0\n", "malformed node line '0 CT 0'"),
    ("0 CT 0 - 1\n", "malformed node line '0 CT 0 - 1'"),
    ("0 CT 0 -\n2 CT 0 0\n", "node ids must be dense, got 2 want 1"),
    ("1 CT 0 -\n", "node ids must be dense, got 1 want 0"),
])
def test_load_rejects_malformed_fields_by_name(body, message):
    count = body.count("\n")
    with pytest.raises(StateError, match=message):
        load_state(f"ckp-state v2 {count}\n" + body)


@pytest.mark.parametrize("body,message", [
    ("0 CT 0 -\n1 CF 0 0\n2 CT 0 1\n", "CF node 1"),
    ("0 CT 0 -\n1 CT 0 0\n2 PF 0 1\n", "PF node 2"),
    ("0 CF 1 -\n1 CT 1 0\n2 CT 0 1\n",
     "node 2 descends from a False node"),
])
def test_load_rejects_broken_truth(body, message):
    # a True CF node, a True PF node, a True child of a False parent
    with pytest.raises(StateError, match=message):
        load_state("ckp-state v2 3\n" + body)


@st.composite
def random_states(draw):
    """Grow a small random state by legal moves only."""
    s = CkpState()
    s.add_root(draw(st.sampled_from([CT, CF])))
    steps = draw(st.integers(min_value=0, max_value=25))
    for _ in range(steps):
        pt = s.pt_ids()
        if not pt:
            break
        move = draw(st.integers(min_value=0, max_value=3))
        minimal = [v for v, code in enumerate(s.membership(True))
                   if code == 1]
        if move == 0 and minimal:
            s.mark_pf([draw(st.sampled_from(minimal))])
            continue
        k = draw(st.integers(min_value=1, max_value=3))
        ps = [draw(st.sampled_from(pt)) for _ in range(k)]
        s.add_node(ps, draw(st.sampled_from([CT, CT, CT, CF])))
    return s


def two_route_state() -> CkpState:
    """Node 5 hangs from a root (distance 0) and from a node at distance
    1 behind a longer chain, so the two routes must agree on 1."""
    s = chain([CF, CT, CT])
    s.add_node([0], CF)          # 3
    s.add_node([2, 3], CT)       # 4
    s.add_node([4, 1], CT)       # 5
    s.mark_pf([3])               # 4 becomes a root
    return s


@given(random_states())
@example(two_route_state())
@settings(max_examples=120, deadline=None)
def test_distance_routes_agree_on_random_states(s):
    want = bfs_depths(s)
    assert pt_false_distances(s) == want
    # the oracles' list: the distance at each PT False id, and the
    # sentinel len(s.labels) at every other
    dist, ids = _pt_false_distances(s, _label_bytes(s))
    assert ids == list(want)
    assert dist == [want.get(v, len(s.labels)) for v in range(len(s.labels))]
    verify_state(s)


@given(random_states())
@settings(max_examples=80, deadline=None)
def test_round_trip_on_random_states(s):
    text = dump_state(s)
    assert dump_state(load_state(text)) == text


def defined_membership(s: CkpState, simple: bool) -> list[int]:
    """Each node's code read off the definitions, from the labels and
    the parent lists alone: 1 for CF or for CT below a PF node, 2 for
    CT with no PF parent and no child (simple) or no CT child edge
    (general), else 0."""
    n = len(s.labels)
    codes = []
    for v in range(n):
        kids = [c for c in range(n) for u in s.parents[c] if u == v]
        if s.labels[v] == CF or (s.labels[v] == CT and any(
                s.labels[u] == PF for u in s.parents[v])):
            codes.append(1)
        elif s.labels[v] == CT and not any(
                s.labels[c] == CT or simple for c in kids):
            codes.append(2)
        else:
            codes.append(0)
    return codes


@given(random_states())
@settings(max_examples=80, deadline=None)
def test_membership_matches_the_definitions_on_random_states(s):
    for simple in (True, False):
        assert s.membership(simple) == defined_membership(s, simple)


def reference_truth_closure(state: CkpState) -> None:
    """The truth rule checked node by node, shaped as the rule reads:
    every node and every parent edge, four checks in a fixed order."""
    for v in range(len(state.labels)):
        inherited = any(state.is_false[u] for u in state.parents[v])
        if inherited and not state.is_false[v]:
            raise StateError(f"node {v} descends from a False node but is True")
        if state.labels[v] == CF and not state.is_false[v]:
            raise StateError(f"CF node {v} has is_false unset")
        if state.labels[v] == PF and not state.is_false[v]:
            raise StateError(f"PF node {v} has is_false unset")
        if (state.is_false[v] and not inherited
                and state.labels[v] == CT):
            raise StateError(
                f"CT node {v} is False yet no parent is False")


@st.composite
def corrupted_states(draw):
    """A legal random state with a few truth bits and labels rewritten."""
    s = draw(random_states())
    n = len(s.labels)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if draw(st.booleans()):
            s.is_false[v] = not s.is_false[v]
        else:
            s.labels[v] = draw(st.sampled_from([CT, CF, PF]))
    return s


def refusal(check, s):
    try:
        check(s)
    except StateError as err:
        return str(err)
    return None


@given(corrupted_states())
@settings(max_examples=300, deadline=None)
def test_truth_closure_matches_the_per_node_reference(s):
    # load_state derives the columns, so the edited labels leave none
    # stale and the truth rule alone decides
    assert refusal(lambda s: load_state(dump_state(s)), s) == refusal(
        reference_truth_closure, s)


@given(random_states())
@settings(max_examples=80, deadline=None)
def test_built_and_loaded_states_pass_the_recount(s):
    verify_state(s)
    verify_state(load_state(dump_state(s)))


@pytest.mark.parametrize("edit,message", [
    # a short column is refused before any column is compared
    (lambda s: s.pf_parent_edges.pop(), "state columns differ in length"),
    (lambda s: s.parents[2].append(3), "parent id 3 out of range"),
    (lambda s: s.parents[1].append(-1), "parent id -1 out of range"),
    (lambda s: s.deg_pt.__setitem__(1, 1), "node 1: deg_pt is 1, recount 0"),
    (lambda s: s.deg_ct.__setitem__(0, 2), "node 0: deg_ct is 2, recount 1"),
    (lambda s: s.pf_parent_edges.__setitem__(3, 0),
     "node 3: pf_parent_edges is 0, recount 1"),
    (lambda s: setattr(s, "pf_total", 2), "pf_total is 2, recount 1"),
    # the first column that differs is named, at its lowest node
    (lambda s: (s.deg_pt.__setitem__(3, 5), s.children[2].clear()),
     "node 2: children do not mirror the parent lists"),
    (lambda s: (s.deg_ct.__setitem__(0, 2), s.deg_pt.__setitem__(3, 5)),
     "node 3: deg_pt is 5, recount 0"),
    # at one node, children before the degrees
    (lambda s: (s.deg_pt.__setitem__(1, 5), s.children[1].clear()),
     "node 1: children do not mirror the parent lists"),
])
def test_recount_names_the_lowest_node_and_its_column(edit, message):
    s = chain([CF, CT, CT, CT])
    s.mark_pf([2])
    verify_state(s)
    edit(s)
    with pytest.raises(StateError) as err:
        verify_state(s)
    assert str(err.value) == message


# every per-node column of the state, so that the state, verify_state's
# length list and the kernel's import cannot drift apart
PER_NODE_COLUMNS = [name for name in CkpState.__slots__
                    if isinstance(getattr(CkpState(), name), list)]


@pytest.mark.parametrize("name", PER_NODE_COLUMNS)
def test_verify_state_checks_every_column_length(name):
    s = chain([CF, CT, CT, CT])
    getattr(s, name).pop()
    with pytest.raises(StateError, match="state columns differ in length"):
        verify_state(s)
