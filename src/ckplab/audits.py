"""Deep recomputation audits over an exported state and bookkeeping.

Both engines export the same two things: the state (a ``CkpState``) and
one bookkeeping record, ``export_bookkeeping()``, holding everything
they maintain incrementally (attachment weights and their Fenwick tree,
the membership codes ``member`` and their counts ``member_count``, the
zero-run marker, the frozen PF child counts).  Each audit reads
``(state, features, book)``, recomputes from the raw node lists and
compares, so one audit serves both backends.
These checks are deliberately written against first principles rather
than through the engine's own helpers, so a bookkeeping bug cannot hide
by being applied consistently on both sides.  Every audit reads engine
output: the exported state's columns or the bookkeeping record.  The
state helpers the engines do not keep, such as
:func:`state.pt_false_distances`, are held to references in the tests.
"""

from __future__ import annotations

import math

from .evolution import AuditViolation
from .state import PF, StateError, verify_state


def audit_edges(st) -> None:
    """The intake check, :func:`state.verify_state`, raised as an audit
    failure: child lists in insertion order that mirror the parent
    lists, every cached degree and the PF count equal to a recount, and
    the truth rule."""
    try:
        verify_state(st)
    except StateError as err:
        raise AuditViolation(str(err)) from err


def audit_weights(st, features, book) -> None:
    """The weight index must hold a(PT degree) for live nodes, zero for
    the PF ones, with a consistent running total and positive count.
    Each Fenwick slot ``tree[j]`` must hold the sum of its block
    ``weights[j - (j & -j):j]`` within the total's drift bound, and a
    slot whose block starts at or past the last node is exactly 0.0."""
    attach = features.attach
    weights = book["weights"]
    n = len(st.labels)
    if len(weights) != n:
        raise AuditViolation(
            f"weight index tracks {len(weights)} nodes, state has {n}")
    total = 0.0
    positive = 0
    for v in range(n):
        want = 0.0 if st.labels[v] == PF else attach.evaluate(st.deg_pt[v])
        got = weights[v]
        if got != want:
            raise AuditViolation(
                f"node {v}: indexed weight {got}, expected {want}")
        total += want
        positive += want > 0
    bound = 1e-9 * max(1.0, total)
    if not abs(book["weight_total"] - total) <= bound:    # NaN fails too
        raise AuditViolation(
            f"weight total drifted: maintained {book['weight_total']}, "
            f"recomputed {total}")
    if book["weight_positive"] != positive:
        raise AuditViolation(
            f"positive-weight count {book['weight_positive']}, "
            f"recount {positive}")
    tree = book["tree"]
    if len(tree) <= n:
        raise AuditViolation(
            f"Fenwick tree has {len(tree) - 1} slots for {n} nodes")
    for j in range(1, len(tree)):
        start = j - (j & -j)
        block = math.fsum(weights[start:j])
        # no weight was ever added into a block past the last node
        slack = bound if start < n else 0.0
        if not abs(tree[j] - block) <= slack:
            raise AuditViolation(
                f"Fenwick slot {j} holds {tree[j]}, its block sums to "
                f"{block}")


def audit_counts(st, features, book) -> None:
    """Every incrementally maintained counter and membership code must
    match a from-scratch pass over the state, in this order: the PT
    False count, each node's code against
    :meth:`state.CkpState.membership` (the first that differs is named
    at its lowest node), the count of nodes per code, and the zero-run
    marker."""
    n = len(st.labels)
    pt_false = sum(1 for v in range(n)
                   if st.labels[v] != PF and st.is_false[v])
    if book["pt_false"] != pt_false:
        raise AuditViolation(
            f"PT False count {book['pt_false']}, recount {pt_false}")
    recount = st.membership(features.simple)
    for v, (have, want) in enumerate(zip(book["member"], recount,
                                         strict=True)):
        if have != want:
            raise AuditViolation(
                f"node {v}: membership code {have}, recount {want}")
    counts = [recount.count(code) for code in range(3)]
    if book["member_count"] != counts:
        raise AuditViolation(
            f"membership counts {book['member_count']}, recount {counts}")
    zero = book["pt_false"] == 0
    if zero != (book["zero_since"] is not None):
        raise AuditViolation("zero-run marker disagrees with PT False count")


def verify_pf_frozen(st, features, book) -> None:
    """A PF node keeps the children it had when it was marked."""
    for v, n_children in book["pf_child_len"].items():
        if len(st.children[v]) != n_children:
            raise AuditViolation(f"PF node {v} gained children")


def full_audit(st, features, book) -> None:
    """Run the four deep audits against an exported state and its
    engine's bookkeeping record: the edges and derived columns, the
    weight index, the counters and membership codes, and the frozen PF
    nodes."""
    audit_edges(st)
    audit_weights(st, features, book)
    audit_counts(st, features, book)
    verify_pf_frozen(st, features, book)
