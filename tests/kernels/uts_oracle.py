"""The array-API ``UtsBag.process`` that the integer one replaced — kept
verbatim as the bit-equality oracle for it.

Every sibling interval goes through ``rng.child_states`` and
``rng.num_children``, the NumPy forms that define the hash and the geometric
law; the production body asks ``rng.children`` for the same pairs as Python
ints.  The DFS order, the cut-off rule and the interval list after every call
must be *equal* (states compared as ints), because split, loot and steal
order, and through them every event count and golden trace, hang on them.
"""


def process_oracle(bag, max_items: int) -> int:
    """``bag.process(max_items)`` as it was; mutates ``bag`` the same way."""
    processed = bag._bootstrap
    bag._bootstrap = 0
    params, rng, q = bag.params, bag.rng, bag.params.q
    while processed < max_items and bag.intervals:
        state, depth, lo, hi = bag.intervals[-1]
        take = min(hi - lo, max_items - processed)
        if lo + take >= hi:
            bag.intervals.pop()
        else:
            bag.intervals[-1] = (state, depth, lo + take, hi)
        if depth + 1 < params.depth:
            children = rng.child_states(state, lo, lo + take)
            counts = rng.num_children(children, q)
            push = bag.intervals.append
            for st, k in zip(children, counts.tolist()):
                if k > 0:
                    push((st, depth + 1, 0, k))
        processed += take
    return processed


def int_intervals(bag) -> list:
    """The interval list with SplitMix states as plain ints (the oracle's are
    ``np.uint64`` scalars)."""
    return [(int(st), dep, lo, hi) for st, dep, lo, hi in bag.intervals]
