"""The live chooser's decision stream: served from blocks, it is the
stream of one ``random()`` call per uniform."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ckplab import engine
from ckplab.attachment import ParentCountLaw, PrefixPool, WeightIndex, \
    preferential
from ckplab.engine import kernel_available
from ckplab.evolution import Features, init_chain
from ckplab.potentials import MinDistance, mc_drift
from ckplab.rand import BLOCK, SimChooser, make_generator
from ckplab.state import CF

LAWS = [ParentCountLaw.const(2), ParentCountLaw({1: 0.5, 2: 0.25, 3: 0.25})]
WEIGHTS = [3.0, 0.0, 1.0, 2.0, 0.0, 5.0]


def pools() -> list:
    index = WeightIndex(capacity=2)
    for w in WEIGHTS:
        index.append(w)
    return [index, PrefixPool(np.array(WEIGHTS))]


POOLS = pools()

# (method, argument): pmf_index and weighted_index name an entry of
# LAWS and POOLS
DEGENERATE = st.one_of(
    st.tuples(st.just("maybe"), st.sampled_from([0, 1, 0.0, 1.0])),
    st.tuples(st.just("uniform_index"), st.just(1)),
    st.tuples(st.just("pmf_index"), st.just(0)),
)
DECISION = st.one_of(
    DEGENERATE,
    st.tuples(st.just("maybe"),
              st.one_of(st.floats(0, 1, exclude_min=True, exclude_max=True),
                        st.just(Fraction(1, 3)))),
    st.tuples(st.just("uniform_index"), st.integers(2, 9)),
    st.tuples(st.just("pmf_index"), st.just(1)),
    st.tuples(st.just("weighted_index"), st.sampled_from([0, 1])),
)


def decide(chooser: SimChooser, method: str, arg):
    if method == "pmf_index":
        arg = LAWS[arg]
    elif method == "weighted_index":
        arg = POOLS[arg]
    return getattr(chooser, method)(arg)


def one_per_uniform(method: str, arg, draw):
    """The decision as a chooser calling ``draw`` once per uniform makes
    it."""
    if method == "maybe":
        p = float(arg)
        if p <= 0 or p >= 1:
            return p >= 1
        return draw() < p
    if method == "uniform_index":
        return 0 if arg == 1 else min(int(draw() * arg), arg - 1)
    if method == "pmf_index":
        cum = LAWS[arg].cum
        if len(cum) == 1:
            return 0
        u = draw()
        return next((i for i, c in enumerate(cum) if u < c), len(cum) - 1)
    pool = POOLS[arg]
    return pool.select(draw() * pool.total)


@given(st.integers(min_value=0, max_value=2**63 - 1),
       st.lists(DEGENERATE, max_size=20),
       st.lists(DECISION, min_size=300, max_size=900))
@settings(max_examples=15, deadline=None)
def test_blocks_serve_the_one_value_per_uniform_stream(seed, prefix, rest):
    decisions = prefix + rest
    values = iter(make_generator(seed).random(len(decisions)).tolist())
    taken = 0

    def draw():
        nonlocal taken
        taken += 1
        return next(values)

    fresh = make_generator(seed).bit_generator.state
    gen = make_generator(seed)
    chooser = SimChooser(gen)
    for method, arg in decisions:
        assert decide(chooser, method, arg) == one_per_uniform(method, arg,
                                                               draw)
        assert chooser.draws == taken
        if taken == 0:
            assert gen.bit_generator.state == fresh
    advanced = make_generator(seed)
    advanced.random(BLOCK * math.ceil(taken / BLOCK))
    assert gen.bit_generator.state == advanced.bit_generator.state


def test_a_bool_seed_is_refused():
    for seed in (True, False):
        with pytest.raises(ValueError, match="bool"):
            SimChooser(seed)


SEED_FEATURES = Features(preferential(), ParentCountLaw.const(1), 0.5, 2,
                         "bfs")


def seed_sim_chooser(seed):
    SimChooser(seed).maybe(0.5)


def seed_kernel_engine(seed):
    engine._kernel.KernelEngine(SEED_FEATURES, init_chain(3, 1, CF),
                                seed).run(20)


def seed_mc_drift(seed):
    mc_drift(init_chain(3, 1, CF), SEED_FEATURES,
             MinDistance(preferential(), 3), 5, seed)


SEEDED = [seed_sim_chooser,
          pytest.param(seed_kernel_engine, marks=pytest.mark.skipif(
              not kernel_available(), reason="compiled kernel not built")),
          seed_mc_drift]


@pytest.mark.parametrize("seed", [True, False, 1.5, 2.0, "1", None, -1,
                                  -2**70])
@pytest.mark.parametrize("build", SEEDED)
def test_every_engine_refuses_the_same_seeds_by_name(build, seed):
    # numpy would read True as seed 1, and its own errors for the others
    # do not name the argument
    with pytest.raises(ValueError,
                       match=r"seed must be a non-negative integer, "
                             r"(not the bool|got) " + re.escape(repr(seed))):
        build(seed)


@pytest.mark.parametrize("seed", [0, 7, np.int64(7), np.uint64(2**64 - 1),
                                  2**64, 2**70])
@pytest.mark.parametrize("build", SEEDED)
def test_every_engine_accepts_the_same_seeds(build, seed):
    build(seed)

