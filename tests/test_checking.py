"""Checking mechanism semantics: walks, search order, stop rules, marking
scope, soundness and the dominance chain; and the replay chooser the
scripted cases run under."""

from collections import deque
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ckplab import checking, potentials, rand
from ckplab.attachment import ParentCountLaw, preferential
from ckplab.checking import (
    MECHANISMS, _descendants_within, run_check,
)
from ckplab.evolution import Features, PyEngine, init_chain
from ckplab.rand import PathChooser, SimChooser
from ckplab.state import CT, CF, PF, CkpState

from reference import flagged, outcomes, reference_ball


def chain(labels):
    s = CkpState()
    s.add_root(labels[0])
    for i, lab in enumerate(labels[1:], start=1):
        s.add_node([i - 1], lab)
    return s


def pt_ball(state, v, k):
    """All nodes within k upward PT steps of v, traversal unrestricted."""
    seen = {v}
    queue = deque([(v, 0)])
    while queue:
        u, d = queue.popleft()
        if d == k:
            continue
        for w in state.parents[u]:
            if w not in seen and state.labels[w] != PF:
                seen.add(w)
                queue.append((w, d + 1))
    return seen


def scripted(mechanism, s, v, k, p, p_e, script=()):
    """``run_check`` on ``script``, which must be the check's whole list
    of decisions: one it left untaken or one it opened past its end
    fails the test."""
    chooser = PathChooser(script)
    out = run_check(mechanism, s, v, k=k, p=p, p_e=p_e, chooser=chooser)
    assert chooser.cursor == len(chooser.path) and not chooser.forks, (
        chooser.cursor, chooser.path, chooser.forks)
    return out


# -- the replay chooser ----------------------------------------------------

def fork_masses(chooser):
    """``[(path, mass)]`` for the forks ``chooser`` recorded."""
    return [(path, Fraction(num, den)) for path, num, den in chooser.forks]


def test_path_chooser_fails_loudly_off_its_path():
    # the script ends before the check coin: the run takes heads and
    # forks tails, a decision opened past the path
    s = chain([CF, CT])
    chooser = PathChooser([])
    out = run_check("bfs", s, 1, k=2, p=0.25, p_e=1, chooser=chooser)
    assert out.performed == [True] and out.found == [0]
    assert (chooser.path, chooser.num, chooser.den) == ((True,), 1, 4)
    assert chooser.forks == [((False,), 3, 4)]
    assert chooser.cursor == len(chooser.path) and chooser.forks
    # so a scripted case fails on a decision its script left out, and on
    # a scripted decision the check never took
    with pytest.raises(AssertionError):
        scripted("bfs", s, 1, k=2, p=0.25, p_e=1)
    with pytest.raises(AssertionError):
        scripted("bfs", s, 1, k=2, p=1, p_e=1, script=[True])
    with pytest.raises(ValueError, match="not among options"):
        PathChooser([3]).uniform_index(3)
    with pytest.raises(ValueError, match="not among options"):
        PathChooser([2]).weighted_index({0: 0.5, 1: 0.5})
    with pytest.raises(ValueError, match="prescribed outcome 2 not among"):
        PathChooser([2]).maybe(Fraction(1, 3))
    with pytest.raises(ValueError, match="prescribed outcome 2 not among"):
        PathChooser([2]).pmf_index(ParentCountLaw({1: 0.5, 3: 0.5}))


def test_path_chooser_offers_exact_masses():
    law = ParentCountLaw({1: 0.5, 3: 0.5})
    chooser = PathChooser([])
    assert chooser.pmf_index(law) == 0
    assert (chooser.path, chooser.num, chooser.den) == ((0,), 1, 2)
    assert chooser.forks == [((1,), 1, 2)]
    # a later open decision forks below the options taken so far
    assert chooser.uniform_index(3) == 0
    assert (chooser.path, chooser.num, chooser.den) == ((0, 0), 1, 6)
    assert chooser.forks == [((1,), 1, 2), ((0, 1), 1, 6), ((0, 2), 1, 6)]
    assert all(type(x) is int for _, num, den in chooser.forks
               for x in (num, den))
    # single alternatives take no place on the path and open nothing
    chooser = PathChooser([])
    assert chooser.pmf_index(ParentCountLaw.const(2)) == 0
    assert chooser.weighted_index({4: 1.0}) == 4
    assert chooser.cursor == len(chooser.path) and not chooser.forks


COIN = Fraction(1, 3)
LAW3 = ParentCountLaw({1: Fraction(1, 6), 2: Fraction(1, 2),
                       3: Fraction(1, 3)})
FLOAT_LAW3 = ParentCountLaw({1: 1 / 6, 2: 1 / 2, 3: 1 / 3})
PICK = {4: Fraction(1, 4), 7: Fraction(3, 4)}


def four_kinds(chooser, coin, law):
    """One decision of each kind, the later ones only on some paths."""
    if not chooser.maybe(coin):
        return ("tails", chooser.uniform_index(3))
    return ("heads", chooser.pmf_index(law), chooser.weighted_index(PICK))


@pytest.mark.parametrize("floats", [False, True])
def test_one_chooser_replays_like_fresh_ones(floats):
    paths = [(), (True,), (False,), (False, 2), (True, 1), (True, 0, 7),
             (False, 0), (True, 2, 4), (True, 1, 9), (False, 5)]
    # a coin or law given in floats is offered at its binary values
    coin, law = (1 / 3, FLOAT_LAW3) if floats else (COIN, LAW3)
    q = Fraction(coin)
    pl = [Fraction(p) for p in law.probs]
    shared = PathChooser()
    for path in paths + paths[::-1]:
        fresh = PathChooser(path)
        shared.replay(path)
        outcomes = []
        for chooser in (fresh, shared):
            try:
                result = four_kinds(chooser, coin, law)
                outcomes.append(("done", result,
                                 chooser.cursor == len(chooser.path)
                                 and not chooser.forks,
                                 chooser.path, chooser.num, chooser.den,
                                 chooser.forks))
            except ValueError as err:
                outcomes.append(("refused", str(err)))
        assert outcomes[0] == outcomes[1], path
        if path == ():
            # heads, the first law entry and the first pick are taken;
            # every other option is one fork, and the masses sum to the
            # tree's, one but for the float law's binary masses
            assert outcomes[0][1:4] == (("heads", 0, 4), False, (True, 0, 4))
            assert fork_masses(shared) == [
                ((False,), 1 - q), ((True, 1), q * pl[1]),
                ((True, 2), q * pl[2]), ((True, 0, 7), q * pl[0] * 3 / 4)]
            taken = Fraction(shared.num, shared.den)
            assert taken == q * pl[0] / 4
            assert taken + sum(m for _, m in fork_masses(shared)) == (
                1 - q + q * sum(pl))
        if path == (True,):
            # a prescribed outcome adds no factor to the weight
            assert fork_masses(shared) == [((True, 1), pl[1]),
                                           ((True, 2), pl[2]),
                                           ((True, 0, 7), pl[0] * 3 / 4)]
        if path in ((False, 2), (True, 0, 7)):
            assert outcomes[0][2] and not shared.forks


def test_each_option_table_is_built_once_per_call(monkeypatch):
    """One exact_drift call replays one chooser over every move and every
    check, so each decision object (the rates, the law, the pick pmf,
    each uniform count) has its option table built exactly once."""
    built = {}

    def spy(name):
        real = getattr(rand, name)

        def build(decision):
            key = (name, decision if name == "_share_table" else id(decision))
            built[key] = built.get(key, 0) + 1
            return real(decision)
        monkeypatch.setattr(rand, name, build)

    builders = ("_coin_table", "_law_table", "_pick_table", "_share_table")
    for name in builders:
        spy(name)
    law = ParentCountLaw({1: Fraction(1, 2), 2: Fraction(1, 4),
                          3: Fraction(1, 4)})
    f = Features(preferential(), law, Fraction(1, 2), 3, "bfs",
                 error_rate=Fraction(1, 10), detection_rate=Fraction(4, 5),
                 adversary_rate=Fraction(1, 4), adversary_budget=2)
    r = potentials.exact_drift(init_chain(5, 1, CF), f,
                               potentials.MinDistance(preferential(), 3))
    assert r.leaf_count == 1107
    assert set(built.values()) == {1}
    # the four coins (adversary, label, check, detection), the law, the
    # pick pmf, and RandomPt's uniform counts: five PT nodes and a label
    kinds = [name for name, _ in built]
    assert [kinds.count(name) for name in builders] == [4, 1, 1, 2]


# -- stringy ---------------------------------------------------------------
# whole checks run with p = 1, which draws no coin


def test_stringy_finds_cf_on_unique_path():
    s = chain([CF, CT, CT])
    out = scripted("stringy", s, 2, k=2, p=1, p_e=1)
    assert out.found == [0]
    assert out.marked == {0, 1, 2}
    assert out.visited == [2, 1, 0]


def test_stringy_depth_limit():
    s = chain([CF, CT, CT, CT])
    out = scripted("stringy", s, 3, k=2, p=1, p_e=1)
    assert out.found == [] and out.marked == set()


def test_stringy_diamond_both_branches_reach_the_error():
    s = CkpState()
    s.add_root(CF)
    s.add_node([0], CT)
    s.add_node([0], CT)
    s.add_node([1, 2], CT)
    for branch in (0, 1):
        out = scripted("stringy", s, 3, k=2, p=1, p_e=1,
                       script=[branch])
        assert out.found == [0]
        assert out.marked == {3, branch + 1, 0}


def test_stringy_pf_edge_marks_walked_path_only():
    s = chain([CF, CT, CT])
    s.mark_pf([0])
    out = scripted("stringy", s, 2, k=5, p=1, p_e=1)
    assert out.found == [1]            # the walked top node, a root
    assert out.marked == {1, 2}
    assert 0 not in out.visited


def test_stringy_self_check_and_walkthrough():
    s = chain([CF, CF])
    out = scripted("stringy", s, 1, k=1, p=1, p_e=0.5,
                   script=[True])
    assert out.found == [1] and out.marked == {1}
    # detection fails on v, then fails on the parent: walk passes through
    out = scripted("stringy", s, 1, k=1, p=1, p_e=0.5,
                   script=[False, False])
    assert out.found == [] and out.marked == set()
    assert out.visited == [1, 0]


# -- bfs -------------------------------------------------------------------

def test_bfs_finds_nearest_and_marks_descendants():
    s = chain([CF, CT, CT])
    out = scripted("bfs", s, 2, k=2, p=1, p_e=1)
    assert out.found == [0]
    assert out.marked == {0, 1, 2}


def test_bfs_recognizes_roots_without_visiting_pf():
    s = chain([CF, CT, CT])
    s.mark_pf([0])
    out = scripted("bfs", s, 2, k=1, p=1, p_e=1)
    assert out.found == [1]
    assert out.marked == {1, 2}
    assert 0 not in out.visited


def test_bfs_clean_neighborhood_finds_nothing():
    # every node is hidden-True, so the walk is skipped: it visits
    # nothing and draws nothing, even with a detection coin to flip
    s = chain([CT, CT, CT])
    path = PathChooser([])
    sim = SimChooser(5)
    before = sim.gen.bit_generator.state
    for chooser in (path, sim):
        out = run_check("bfs", s, 2, k=2, p=1, p_e=0.5, chooser=chooser)
        assert out.found == [] and out.marked == set()
        assert out.visited == []
    assert path.cursor == len(path.path) and not path.forks
    assert sim.draws == 0
    assert sim.gen.bit_generator.state == before


def test_per_edge_skips_the_walk_above_a_true_parent():
    # v is CF below a clean parent: the self-check runs, the ball walk
    # above the parent does not
    s = chain([CT, CT])
    s.add_node([1], CF)
    out = scripted("complete", s, 2, k=3, p=1, p_e=0.5, script=[False])
    assert out.performed == [True]
    assert out.found == [] and out.visited == [2]


def test_bfs_marks_all_visited_descendants_not_just_the_path():
    # diamond: both mid nodes were visited before the top CF was popped,
    # both descend from it, both get marked
    s = CkpState()
    s.add_root(CF)
    s.add_node([0], CT)
    s.add_node([0], CT)
    s.add_node([1, 2], CT)
    out = scripted("bfs", s, 3, k=2, p=1, p_e=1)
    assert out.found == [0]
    assert out.marked == {0, 1, 2, 3}


def test_bfs_depth_cap_blocks_distant_error():
    s = chain([CF, CT, CT, CT])
    out = scripted("bfs", s, 3, k=2, p=1, p_e=1)
    assert out.found == []
    assert set(out.visited) == {3, 2, 1}


# -- per-parent mechanisms -------------------------------------------------

def test_exhaustive_self_catch_stops_everything():
    s = CkpState()
    s.add_root(CT)
    s.add_node([0], CT)
    s.add_node([0, 1], CF)
    out = scripted("exhaustive-bfs", s, 2, k=3, p=0.5, p_e=0.5,
                   script=[True, True])
    assert out.found == [2]
    assert out.marked == {2}
    assert out.performed == [True]     # second edge never reached


def test_exhaustive_finds_cf_parent():
    s = chain([CF, CT])
    s.add_node([0], CT)
    out = scripted("exhaustive-bfs", s, 2, k=1, p=1, p_e=1)
    assert out.found == [0]
    assert out.marked == {0, 2}


def test_exhaustive_coin_per_edge_in_order():
    # parents: u1 with a clean ancestry, u2 one step below a CF node;
    # first coin fails, second succeeds
    s = CkpState()
    s.add_root(CT)                      # 0: clean
    s.add_root(CF)                      # 1: the error
    s.add_node([0], CT)        # 2 = u1
    s.add_node([1], CT)        # 3 = u2
    s.add_node([2, 3], CT)     # 4 = v
    out = scripted("exhaustive-bfs", s, 4, k=2, p=0.5, p_e=1,
                   script=[False, True])
    assert out.performed == [False, True]
    assert out.found == [1]
    assert out.marked == {1, 3, 4}


def test_parentwise_collects_one_find_per_edge():
    # two parents sitting under two distinct CF ancestors
    s = CkpState()
    s.add_root(CF)
    s.add_root(CF)
    s.add_node([0], CT)       # 2
    s.add_node([1], CT)       # 3
    s.add_node([2, 3], CT)    # 4 = v
    out = scripted("parentwise-bfs", s, 4, k=2, p=1, p_e=1)
    assert out.found == [0, 1]
    assert out.marked == {0, 1, 2, 3, 4}


def test_parentwise_single_parent_equals_exhaustive():
    s = chain([CF, CT, CT])
    a = scripted("exhaustive-bfs", s, 2, k=3, p=1, p_e=1)
    b = scripted("parentwise-bfs", s, 2, k=3, p=1, p_e=1)
    assert (a.found, a.marked, a.visited) == (b.found, b.marked, b.visited)


def test_complete_marks_error_with_descendants():
    s = chain([CF, CT, CT])
    out = scripted("complete", s, 2, k=2, p=1, p_e=1)
    assert out.found == [0]
    assert out.marked == {0, 1, 2}


def test_complete_finds_several_side_by_side():
    s = CkpState()
    s.add_root(CF)
    s.add_root(CF)
    s.add_node([0, 1], CT)    # 2
    s.add_node([2], CT)       # 3 = v
    out = scripted("complete", s, 3, k=2, p=1, p_e=1)
    assert out.found == [0, 1]
    assert out.marked == {0, 1, 2, 3}


def test_complete_does_not_expand_past_a_recognized_node():
    s = chain([CF, CF, CT, CT])        # 0 hides strictly behind 1
    out = scripted("complete", s, 3, k=3, p=1, p_e=1)
    assert out.found == [1]
    assert 0 not in out.visited


def test_complete_self_catch_does_not_cancel_the_sweep():
    s = chain([CF, CT])
    s.add_node([1], CF)       # v is itself CF, error 2 hops up
    out = scripted("complete", s, 2, k=3, p=1, p_e=1)
    assert out.found == [2, 0]
    assert out.marked == {0, 1, 2}


# Every coin below is a detection coin (p = 1 draws none); each script
# lists them in the order the mechanism meets the CF nodes: v on each
# performed edge, then 0 above parent 2 or 1 above parent 3.
STOP_POLICY_CASES = [
    # v caught on the first edge
    ("exhaustive-bfs", [True],
     [True], [4], {4}, [4]),
    ("parentwise-bfs", [True, False, True],
     [True, True], [4, 1], {1, 3, 4}, [4, 4, 3, 1]),
    ("complete", [True, True, False, True],
     [True, True], [4, 0, 1], {0, 1, 2, 3, 4}, [4, 2, 0, 4, 3, 1]),
    # v missed on the first edge, 0 found above parent 2
    ("exhaustive-bfs", [False, True],
     [True], [0], {0, 2, 4}, [4, 2, 0]),
    ("parentwise-bfs", [False, True, False, True],
     [True, True], [0, 1], {0, 1, 2, 3, 4}, [4, 2, 0, 4, 3, 1]),
    ("complete", [False, True, False, True],
     [True, True], [0, 1], {0, 1, 2, 3, 4}, [4, 2, 0, 4, 3, 1]),
]


@pytest.mark.parametrize("mechanism,script,performed,found,marked,visited",
                         STOP_POLICY_CASES)
def test_per_edge_stop_policies(mechanism, script, performed, found, marked,
                                visited):
    # a CF new node whose two parents sit under distinct CF ancestors
    s = CkpState()
    s.add_root(CF)                     # 0
    s.add_root(CF)                     # 1
    s.add_node([0], CT)       # 2
    s.add_node([1], CT)       # 3
    s.add_node([2, 3], CF)    # 4 = v
    out = scripted(mechanism, s, 4, k=2, p=1, p_e=0.5, script=script)
    assert out.performed == performed
    assert out.found == found
    assert out.marked == marked
    assert out.visited == visited


def test_run_check_whole_check_coin():
    s = chain([CF, CT])
    out = scripted("bfs", s, 1, k=2, p=0.5, p_e=1, script=[False])
    assert out.performed == [False]
    assert out.found == [] and out.visited == []
    out = scripted("stringy", s, 1, k=2, p=0.5, p_e=1, script=[True])
    assert out.found == [0]
    with pytest.raises(ValueError):
        scripted("sideways", s, 1, k=2, p=1, p_e=1)


# -- shared invariants on random states ------------------------------------

@st.composite
def state_with_new_node(draw):
    s = CkpState()
    s.add_root(draw(st.sampled_from([CT, CF])))
    n_steps = draw(st.integers(min_value=1, max_value=20))
    for _ in range(n_steps):
        pt = s.pt_ids()
        if not pt:
            break
        minimal = [v for v, code in enumerate(s.membership(True))
                   if code == 1]
        if draw(st.booleans()) and minimal:
            s.mark_pf([draw(st.sampled_from(minimal))])
            continue
        deg = draw(st.integers(min_value=1, max_value=3))
        s.add_node([draw(st.sampled_from(pt)) for _ in range(deg)],
                   draw(st.sampled_from([CT, CT, CF])))
    pt = s.pt_ids()
    if not pt:
        s.add_root(CF)
        pt = s.pt_ids()
    deg = draw(st.integers(min_value=1, max_value=3))
    v = s.add_node([draw(st.sampled_from(pt)) for _ in range(deg)],
                   draw(st.sampled_from([CT, CT, CF])))
    return s, v


@given(state_with_new_node(), st.sampled_from(MECHANISMS),
       st.integers(min_value=1, max_value=4), st.integers())
@settings(max_examples=200, deadline=None)
def test_soundness_radius_and_connectivity(svp, mechanism, k, seed):
    s, v = svp
    chooser = SimChooser(seed % (2 ** 32))
    out = run_check(mechanism, s, v, k=k, p=0.7, p_e=0.6, chooser=chooser)
    ball = pt_ball(s, v, k)
    for u in out.marked:
        assert s.is_false[u], "marked a hidden-True node"
    for u in out.visited:
        assert u in ball, "visited outside the radius"
    assert out.marked <= set(out.visited)
    if out.marked and out.marked != {v}:
        assert v in out.marked
    member = s.membership(True)
    for f in out.found:
        assert member[f] == 1


@given(state_with_new_node(), st.integers(min_value=1, max_value=4))
@settings(max_examples=200, deadline=None)
def test_dominance_chain_under_forced_coins(svp, k):
    s, v = svp
    # p = 1 and p_e = 1 consume no randomness: outcomes are deterministic
    ex, pw, co = (scripted(mech, s, v, k, 1, 1)
                  for mech in ("exhaustive-bfs", "parentwise-bfs", "complete"))
    st_out = run_check("stringy", s, v, k, 1, 1, SimChooser(9))
    assert ex.marked <= pw.marked
    assert pw.marked <= co.marked
    assert st_out.marked <= pt_ball(s, v, k)


# -- the skip from hidden-True starts is exact -----------------------------

def never_skipping_ball(state, start, cap, p_e, chooser, sweep):
    """``checking._ball`` without its skip: it walks the ball above every
    PT start, hidden-True ones included."""
    if cap < 0 or state.labels[start] == PF:
        return [], set(), []
    depth = {start: 0}
    queue = [start]
    founds = []
    head = 0
    while head < len(queue):
        u = queue[head]
        head += 1
        if flagged(state, u, p_e, chooser):
            founds.append(u)
            if not sweep:
                break
            continue
        if depth[u] < cap:
            for w in state.parents[u]:
                if w not in depth and state.labels[w] != PF:
                    depth[w] = depth[u] + 1
                    queue.append(w)
    del queue[head:]
    return founds, _descendants_within(state, queue, founds), queue


@st.composite
def grown_state(draw):
    """A state grown by the engine with errors on, from a CT or CF root,
    so it holds hidden-True and hidden-False nodes, CF and PF ones."""
    feats = Features(attach=preferential(),
                     parent_count=ParentCountLaw({1: 0.5, 3: 0.5}),
                     check_rate=0.5,
                     check_depth=draw(st.integers(min_value=1, max_value=3)),
                     mechanism=draw(st.sampled_from(MECHANISMS)),
                     error_rate=draw(st.sampled_from([0.1, 0.3])),
                     detection_rate=0.7)
    init = init_chain(draw(st.integers(min_value=1, max_value=4)), 1,
                      draw(st.sampled_from([CT, CF])))
    eng = PyEngine(feats, init,
                   SimChooser(draw(st.integers(min_value=0,
                                               max_value=2**32 - 1))))
    eng.run(draw(st.integers(min_value=1, max_value=25)))
    return eng.state


def outcome_law(decide) -> dict:
    law: dict = {}
    for outcome, num, den in outcomes(decide, PathChooser()):
        law[outcome] = law.get(outcome, 0) + Fraction(num, den)
    return law


@given(grown_state(), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_skipping_true_starts_is_exact(s, k, seed):
    """Checking each PT node with every mechanism, the skipping walk and
    the never-skipping one give the same law of (coins, finds, marks)
    and, under a live chooser, the same outcome, the same number of
    uniforms drawn and the same generator state after."""
    for mechanism in MECHANISMS:
        for v in s.pt_ids():
            def decide(chooser):
                out = run_check(mechanism, s, v, k, 0.5, 0.7, chooser)
                return (tuple(out.performed), tuple(out.found),
                        frozenset(out.marked))

            live = []
            for ball in (checking._ball, never_skipping_ball):
                with mock.patch.object(checking, "_ball", ball):
                    sim = SimChooser(seed)
                    live.append((outcome_law(decide), decide(sim),
                                 sim.draws, sim.gen.bit_generator.state))
            assert live[0] == live[1], (mechanism, v)


# -- the ball walk against a reference written on its own ------------------

def frozen_ball(result) -> tuple:
    founds, marked, order = result
    return tuple(founds), frozenset(marked), tuple(order)


@given(grown_state(), st.integers(min_value=0, max_value=4), st.booleans(),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_ball_is_the_reference_walk(s, cap, sweep, seed):
    """From every node, ``_ball`` and the depth-dict walk of
    ``reference.reference_ball``, which shares no code with ``checking``,
    give the same ``(founds, marked, order)``, draw the same number of
    uniforms and leave the generator in the same state under a live
    chooser, and have the same law of outcomes under a replaying one."""
    for start in range(len(s.labels)):
        seen = []
        for ball in (checking._ball, reference_ball):
            def walk(chooser):
                return frozen_ball(ball(s, start, cap, 0.7, chooser, sweep))

            sim = SimChooser(seed)
            seen.append((walk(sim), sim.draws, sim.gen.bit_generator.state,
                         outcome_law(walk)))
        assert seen[0] == seen[1], (start, cap, sweep)
