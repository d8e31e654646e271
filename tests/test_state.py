"""DAG state bookkeeping: degrees, minimal false set, leaves, distances,
partition and the text format."""

import pytest
from hypothesis import given, settings, strategies as st

from ckplab.state import (
    CT, CF, PF, CkpState, StateError,
    pt_false_distances,
    anchor_bfs, bfs_component_partition,
    dump_state, load_state, verify_truth_closure,
)


def bfs_depths(s: CkpState) -> dict[int, int]:
    """The distance oracle: each PT False node's depth under the upward
    BFS of :func:`anchor_bfs`, which shares no code with the id-order
    relaxation of :func:`pt_false_distances`."""
    return {v: anchor_bfs(s, v)[1] for v in range(len(s.labels))
            if s.labels[v] != PF and s.is_false[v]}


def chain(labels, simple=True):
    """Path graph v0 <- v1 <- ... with the given birth labels."""
    s = CkpState()
    s.add_root(labels[0])
    for i, lab in enumerate(labels[1:], start=1):
        s.add_node([i - 1], lab, birth=i)
    return s


def test_add_node_updates_degrees_with_multiplicity():
    s = CkpState()
    s.add_root(CT)
    s.add_node([0, 0], CT, birth=1)
    assert s.deg_pt[0] == 2
    assert s.deg_ct[0] == 2
    s.add_node([0, 1], CF, birth=2)
    assert s.deg_pt[0] == 3
    assert s.deg_ct[0] == 2      # CF child edge counts toward PT only
    assert s.deg_pt[1] == 1
    assert s.is_false[2]
    assert not s.is_false[1]


def test_truth_inherits_through_any_parent():
    s = CkpState()
    s.add_root(CF)
    s.add_root(CT)
    s.add_node([0, 1], CT, birth=1)
    s.add_node([1], CT, birth=2)
    assert s.is_false == [True, False, True, False]
    verify_truth_closure(s)


def test_add_node_rejects_pf_parent_and_bad_ids():
    s = chain([CF, CT])
    s.mark_pf([0])
    with pytest.raises(StateError, match="parent 0 is PF"):
        s.add_node([0], CT, birth=2)
    with pytest.raises(StateError, match="parent id 5 out of range"):
        s.add_node([5], CT, birth=2)
    with pytest.raises(StateError, match="at least one parent edge"):
        s.add_node([], CT, birth=2)


def snapshot(s: CkpState) -> tuple:
    return (dump_state(s), [list(c) for c in s.children], list(s.deg_pt),
            list(s.deg_ct), list(s.pf_parent_edges), s.pf_total)


def refusal_state() -> CkpState:
    """0 PF, 1 a root under it, 2 False CT, 3 PF; 4 and 5 True."""
    s = chain([CF, CT, CT, CT])
    s.add_root(CT)
    s.add_node([4], CT, birth=5)
    s.mark_pf([0])
    s.mark_pf([3])
    return s


@pytest.mark.parametrize("refused,message", [
    (lambda s: s.add_node([1, 0], CT, birth=6), "parent 0 is PF"),
    (lambda s: s.add_node([1, 7], CT, birth=6), "parent id 7 out of range"),
    (lambda s: s.add_node([1], PF, birth=6),
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
    s.add_node([0], CT, birth=1)
    before = (list(s.deg_pt), list(s.deg_ct), [list(p) for p in s.children])
    s.add_node([0, 1, 1], CF, birth=2)
    s.pop_last_node()
    assert (list(s.deg_pt), list(s.deg_ct),
            [list(p) for p in s.children]) == before
    assert len(s) == 2


def test_mark_pf_updates_counters_and_reports_degrees():
    # 0(CF) <- 1(CT) <- 2(CT), plus 3(CT) also under 1
    s = CkpState()
    s.add_root(CF)
    s.add_node([0], CT, birth=1)
    s.add_node([1], CT, birth=2)
    s.add_node([1], CT, birth=3)
    touched = s.mark_pf([0])
    assert touched == {}                      # 0 had no parents
    assert s.pf_parent_edges[1] == 1
    assert s.is_minimal_false(1)              # root now
    touched = s.mark_pf([1])
    assert s.labels[1] == PF
    assert s.pf_parent_edges[2] == 1 and s.pf_parent_edges[3] == 1
    assert touched == {}                      # 1's only parent is PF already
    assert s.is_minimal_false(2) and s.is_minimal_false(3)


def test_mark_pf_refuses_true_nodes():
    s = chain([CT, CT])
    with pytest.raises(StateError):
        s.mark_pf([1])


def test_minimal_false_set_cf_and_roots():
    # 0(CF) <- 1(CT) <- 2(CT); mark 0: root moves to 1
    s = chain([CF, CT, CT])
    assert s.minimal_false_set() == [0]
    s.mark_pf([0])
    assert s.minimal_false_set() == [1]
    s.mark_pf([1])
    assert s.minimal_false_set() == [2]


def test_leaves_simple_vs_general_mode():
    # 1 has a CF child and a PF child but no CT child
    s = CkpState()
    s.add_root(CT)
    s.add_node([0], CT, birth=1)       # 1
    s.add_node([1], CF, birth=2)       # 2, makes 1 non-leaf in simple mode
    s.add_node([1], CF, birth=3)       # 3, about to become PF
    s.mark_pf([3])
    assert not s.is_ct_nonroot_leaf(1, simple_mode=True)
    assert s.is_ct_nonroot_leaf(1, simple_mode=False)
    # a node below a PF parent is never a leaf
    s2 = chain([CF, CT])
    s2.mark_pf([0])
    assert s2.ct_nonroot_leaves(True) == []
    assert s2.ct_nonroot_leaves(False) == []


def test_distances_match_on_handmade_state():
    # diamond: 0(CF) <- 1,2(CT); 3(CT) under 1 and 2
    s = CkpState()
    s.add_root(CF)
    s.add_node([0], CT, birth=1)
    s.add_node([0], CT, birth=2)
    s.add_node([1, 2], CT, birth=3)
    d = pt_false_distances(s)
    assert d == {0: 0, 1: 1, 2: 1, 3: 2}
    assert d == bfs_depths(s)


def test_distances_skip_pt_true_nodes():
    # False chain alongside a True node: True nodes get no distance
    s = CkpState()
    s.add_root(CF)
    s.add_root(CT)
    s.add_node([0, 1], CT, birth=1)
    d = pt_false_distances(s)
    assert set(d) == {0, 2}
    assert d[2] == 1


def test_anchor_bfs_prefers_breadth_then_edge_order():
    # 3's parents are (1, 2); 1 leads to CF at depth 2, 2 IS minimal false
    s = CkpState()
    s.add_root(CF)
    s.add_node([0], CT, birth=1)   # 1
    s.add_node([0], CF, birth=2)   # 2
    s.add_node([1, 2], CT, birth=3)
    a, depth, trail = anchor_bfs(s, 3)
    assert (a, depth) == (2, 1)
    assert trail == [3, 2]
    # swap edge order: both parents at depth 1, first edge wins
    s2 = CkpState()
    s2.add_root(CF)
    s2.add_node([0], CF, birth=1)
    s2.add_node([1, 0], CT, birth=2)
    a2, _, _ = anchor_bfs(s2, 2)
    assert a2 == 1


def test_partition_covers_all_pt_false_nodes():
    s = CkpState()
    s.add_root(CF)
    s.add_root(CF)
    s.add_node([0], CT, birth=1)
    s.add_node([1], CT, birth=2)
    s.add_node([2, 3], CT, birth=3)
    anchor_of, comps = bfs_component_partition(s)
    assert set(anchor_of) == {0, 1, 2, 3, 4}
    assert sorted(x for mem in comps.values() for x in mem) == [0, 1, 2, 3, 4]
    assert anchor_of[0] == 0 and anchor_of[1] == 1
    assert anchor_of[2] == 0 and anchor_of[3] == 1


def test_dump_load_round_trip_exact():
    s = chain([CF, CT, CT, CT])
    s.add_node([1, 1, 3], CT, birth=9, adversarial=True)
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
    with pytest.raises(StateError):
        load_state("ckp-state v2 0\n")
    with pytest.raises(StateError, match="node count '\\+1' is not an"):
        load_state("ckp-state v1 +1\n0 CT 0 0 0 -\n")
    with pytest.raises(StateError):
        load_state("ckp-state v1 2\n0 CT 0 0 0 -\n")
    with pytest.raises(StateError):
        load_state("ckp-state v1 1\n0 XX 0 0 0 -\n")
    with pytest.raises(StateError):
        load_state("ckp-state v1 2\n0 CT 0 0 0 -\n1 CT 0 1 0 3\n")


@pytest.mark.parametrize("body,message", [
    ("x CT 1 0 0 0\n", "id 'x' is not an integer in line 'x CT 1 0 0 0'"),
    ("0 CT 0 b 0 -\n", "birth 'b' is not an integer"),
    ("0 CT 0 0 0 -\n1 CT 0 1 0 0,y\n", "parent 'y' is not an integer"),
    ("0 CT 0 +1 0 -\n", "birth '\\+1' is not an integer"),
    ("0 CT 0 0 0 -\n1 CT 2 0 0 0\n",
     "is_false flag '2' is not 0 or 1 in line '1 CT 2 0 0 0'"),
    ("0 CT 0 0 7 -\n", "adversarial flag '7' is not 0 or 1"),
])
def test_load_rejects_malformed_fields_by_name(body, message):
    count = body.count("\n")
    with pytest.raises(StateError, match=message):
        load_state(f"ckp-state v1 {count}\n" + body)


@pytest.mark.parametrize("body,message", [
    ("0 CT 0 0 0 -\n1 CF 0 1 0 0\n2 CT 0 2 0 1\n", "CF node 1"),
    ("0 CT 0 0 0 -\n1 CT 0 1 0 0\n2 PF 0 2 0 1\n", "PF node 2"),
    ("0 CF 1 0 0 -\n1 CT 1 1 0 0\n2 CT 0 2 0 1\n",
     "node 2 descends from a False node"),
])
def test_load_rejects_broken_truth(body, message):
    # a True CF node, a True PF node, a True child of a False parent
    with pytest.raises(StateError, match=message):
        load_state("ckp-state v1 3\n" + body)


@st.composite
def random_states(draw):
    """Grow a small random state by legal moves only."""
    s = CkpState()
    s.add_root(draw(st.sampled_from([CT, CF])))
    steps = draw(st.integers(min_value=0, max_value=25))
    for t in range(1, steps + 1):
        pt = s.pt_ids()
        if not pt:
            break
        move = draw(st.integers(min_value=0, max_value=3))
        if move == 0 and len(s.minimal_false_set()) > 0:
            victim = draw(st.sampled_from(s.minimal_false_set()))
            s.mark_pf([victim])
            continue
        k = draw(st.integers(min_value=1, max_value=3))
        ps = [draw(st.sampled_from(pt)) for _ in range(k)]
        s.add_node(ps, draw(st.sampled_from([CT, CT, CT, CF])), birth=t)
    return s


@given(random_states())
@settings(max_examples=120, deadline=None)
def test_distance_routes_agree_on_random_states(s):
    assert pt_false_distances(s) == bfs_depths(s)
    verify_truth_closure(s)


@given(random_states())
@settings(max_examples=80, deadline=None)
def test_round_trip_on_random_states(s):
    text = dump_state(s)
    assert dump_state(load_state(text)) == text


@given(random_states())
@settings(max_examples=80, deadline=None)
def test_partition_members_connect_to_their_anchor(s):
    anchor_of, comps = bfs_component_partition(s)
    for anchor, members in comps.items():
        assert s.is_minimal_false(anchor)
        assert anchor_of[anchor] == anchor
        for v in members:
            a, _, trail = anchor_bfs(s, v)
            assert a == anchor
            # the discovery trail is a real upward PT path ending at the anchor
            for x, y in zip(trail, trail[1:]):
                assert y in s.parents[x]
                assert s.labels[y] != PF


def reference_truth_closure(state: CkpState) -> None:
    """The per-node rule check :func:`verify_truth_closure` replaced:
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
    assert refusal(verify_truth_closure, s) == refusal(
        reference_truth_closure, s)
