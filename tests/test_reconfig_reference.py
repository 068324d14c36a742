"""The one-pass ``tar_to_tj`` and the validator against their reference forms.

``reference_tar_to_tj`` is the leftmost-first bubble scan that restarts after
every swap, and ``reference_validate`` runs a full closure on every
intermediate set.  Both are slow and obviously faithful to their definitions;
the library versions must agree with them on every input.
"""

import random

import pytest

from tsr import errors
from tsr.activation import is_target_set
from tsr.generators import random_connected, random_maxdeg2, random_tree
from tsr.oracle import all_target_set_masks
from tsr.reconfig import (
    TAR,
    TJ,
    TJN,
    ReconfigSequence,
    Step,
    ValidityReport,
    apply_step,
    tar_to_tj,
    validate_sequence,
)


def reference_tar_to_tj(seq: ReconfigSequence) -> ReconfigSequence:
    """Swap the leftmost remove/add pair whose middle set has size below k
    (cancelling it when both name one vertex), restart, and pair the
    fixpoint's adds and removes into jumps."""
    if seq.model != TAR:
        raise errors.InvalidInput(f"expected a TAR sequence, got model {seq.model}")
    k = seq.k
    if len(seq.start) != k or len(seq.end) != k:
        raise errors.EndpointSizeMismatch(
            f"endpoints have sizes {len(seq.start)}, {len(seq.end)}; expected k={k}"
        )
    kinds = list(seq.steps)
    for st in kinds:
        if st.kind not in ("add", "remove"):
            raise errors.InvalidInput(f"TAR sequence contains step kind {st.kind!r}")
    changed = True
    while changed:
        changed = False
        size = len(seq.start)
        i = 0
        while i + 1 < len(kinds):
            a, b = kinds[i], kinds[i + 1]
            mid = size - 1 if a.kind == "remove" else size + 1
            if a.kind == "remove" and b.kind == "add" and mid < k:
                if a.out == b.into:
                    del kinds[i : i + 2]
                else:
                    kinds[i] = Step.add(b.into)
                    kinds[i + 1] = Step.remove(a.out)
                changed = True
                break
            size = mid
            i += 1
    steps = []
    i = 0
    while i < len(kinds):
        a = kinds[i]
        if a.kind != "add" or i + 1 >= len(kinds) or kinds[i + 1].kind != "remove":
            raise errors.InvalidInput("TAR sequence did not normalize to add/remove pairs")
        b = kinds[i + 1]
        if a.into != b.out:
            steps.append(Step.jump(b.out, a.into))
        i += 2
    return ReconfigSequence(seq.start, tuple(steps), TJ)


_ALLOWED_KINDS = {TJ: {"jump"}, TAR: {"add", "remove"}, TJN: {"jump", "noop"}}


def reference_validate(g, seq, is_ts=None) -> ValidityReport:
    """Test every intermediate set, rebuilt as a frozenset, with the full test."""
    if seq.model not in _ALLOWED_KINDS:
        return ValidityReport(False, -1, f"unknown model {seq.model!r}")
    ts = is_ts if is_ts is not None else (lambda s: is_target_set(g, s))
    cur = seq.start
    for v in cur:
        if not 1 <= v <= g.n:
            return ValidityReport(False, -1, f"start contains unknown vertex {v}")
    if not ts(cur):
        return ValidityReport(False, -1, "start set is not a target set")
    if seq.model == TAR and len(cur) > seq.k + 1:
        return ValidityReport(False, -1, f"start set exceeds size {seq.k}+1")
    size0 = len(cur)
    for i, st in enumerate(seq.steps):
        if st.kind not in _ALLOWED_KINDS[seq.model]:
            return ValidityReport(False, i, f"step kind {st.kind!r} not allowed in model {seq.model}")
        if st.kind == "jump":
            if st.out not in cur:
                return ValidityReport(False, i, f"jump removes {st.out} which is not in the set")
            if st.into in cur:
                return ValidityReport(False, i, f"jump adds {st.into} which is already in the set")
            if not 1 <= st.into <= g.n:
                return ValidityReport(False, i, f"jump adds unknown vertex {st.into}")
        elif st.kind == "add":
            if st.into in cur:
                return ValidityReport(False, i, f"add of {st.into} already in the set")
            if not 1 <= st.into <= g.n:
                return ValidityReport(False, i, f"add of unknown vertex {st.into}")
        elif st.kind == "remove":
            if st.out not in cur:
                return ValidityReport(False, i, f"remove of {st.out} not in the set")
        cur = apply_step(cur, st)
        if seq.model in (TJ, TJN) and len(cur) != size0:
            return ValidityReport(False, i, "TJ/TJN set size changed")
        if seq.model == TAR and len(cur) > seq.k + 1:
            return ValidityReport(False, i, f"set size {len(cur)} exceeds {seq.k}+1")
        if not ts(cur):
            return ValidityReport(
                False, i, f"set after step {i} is not a target set: {sorted(cur)}"
            )
    return ValidityReport(True)


def _outcome(fn, *args):
    try:
        return fn(*args).format()
    except errors.TsrError as exc:
        return type(exc), str(exc)


def _random_tar(rng: random.Random) -> ReconfigSequence:
    """A TAR sequence over 1..n, n <= 8: a walk that mostly stays within
    sizes k+1 and returns to k, or arbitrary adds and removes, sometimes with
    a foreign step kind or a start of the wrong size."""
    n = rng.randint(1, 8)
    k = rng.randint(0, n)
    start = set(rng.sample(range(1, n + 1), k))
    steps = []
    if rng.random() < 0.6:
        cur = set(start)
        for _ in range(rng.randint(0, 14)):
            outside = [v for v in range(1, n + 1) if v not in cur]
            shrink = 0.85 if len(cur) > k else 0.5
            if cur and (not outside or rng.random() < shrink):
                v = rng.choice(sorted(cur))
                cur.discard(v)
                steps.append(Step.remove(v))
            else:
                v = rng.choice(outside)
                cur.add(v)
                steps.append(Step.add(v))
        while len(cur) != k:
            if len(cur) > k:
                v = rng.choice(sorted(cur))
                cur.discard(v)
                steps.append(Step.remove(v))
            else:
                v = rng.choice([u for u in range(1, n + 1) if u not in cur])
                cur.add(v)
                steps.append(Step.add(v))
    else:
        for _ in range(rng.randint(0, 12)):
            kind = Step.add if rng.random() < 0.5 else Step.remove
            steps.append(kind(rng.randint(1, n)))
    if steps and rng.random() < 0.05:
        steps[rng.randrange(len(steps))] = rng.choice([Step.noop(), Step.jump(1, 2)])
    if rng.random() < 0.05:
        start ^= {rng.randint(1, n + 1)}
    return ReconfigSequence(frozenset(start), tuple(steps), TAR, k)


def test_tar_to_tj_matches_reference():
    rng = random.Random(2012)
    kinds = {"ok": 0, "jumps": 0, "unpaired": 0, "mismatch": 0, "kind": 0}
    for _ in range(20_000):
        seq = _random_tar(rng)
        got = _outcome(tar_to_tj, seq)
        assert got == _outcome(reference_tar_to_tj, seq), seq.format()
        if isinstance(got, str):
            kinds["ok"] += 1
            kinds["jumps"] += got.count("\nj ")
        elif got[0] is errors.EndpointSizeMismatch:
            kinds["mismatch"] += 1
        elif "normalize" in got[1]:
            kinds["unpaired"] += 1
        else:
            kinds["kind"] += 1
    # every outcome is exercised, and normalisation does real work
    assert min(kinds.values()) >= 100 and kinds["jumps"] > kinds["ok"], kinds


def _random_sequence(rng: random.Random, g, ts_masks: set[int]) -> ReconfigSequence:
    """A walk over mostly-target sets of g in a random model, then corrupted
    at random: a foreign, absent or unknown vertex, a wrong step kind, a bad
    start or an unknown model."""
    n = g.n
    model = rng.choice([TJ, TAR, TJN])
    mask_of = lambda s: sum(1 << v for v in s)
    seed = rng.choice(sorted(ts_masks))
    start = {v for v in g.vertices if seed >> v & 1}
    k = len(start) + rng.choice([0, 0, 1, -1])
    cur = set(start)
    steps = []
    for _ in range(rng.randint(0, 10)):
        for _attempt in range(6):
            inside, outside = sorted(cur), [v for v in g.vertices if v not in cur]
            if model == TAR:
                if inside and (not outside or rng.random() < 0.5):
                    st = Step.remove(rng.choice(inside))
                else:
                    st = Step.add(rng.choice(outside))
            elif (model == TJN and rng.random() < 0.2) or not inside or not outside:
                st = Step.noop()
            else:
                st = Step.jump(rng.choice(inside), rng.choice(outside))
            nxt = apply_step(frozenset(cur), st)
            if mask_of(nxt) in ts_masks or rng.random() < 0.1:
                break
        steps.append(st)
        cur = set(nxt)
    roll = rng.random()
    if steps and roll < 0.3:
        i = rng.randrange(len(steps))
        v = rng.choice([0, n + 1, rng.randint(1, n)])
        w = rng.choice([0, n + 1, rng.randint(1, n)])
        steps[i] = rng.choice(
            [Step.add(v), Step.remove(v), Step.noop(), Step.jump(v, w) if v != w else Step.add(w)]
        )
    elif roll < 0.35:
        start ^= {rng.randint(1, n + 1)}
    elif roll < 0.37:
        model = "warp"
    return ReconfigSequence(frozenset(start), tuple(steps), model, max(k, 0))


def test_validator_matches_reference():
    rng = random.Random(2013)
    makers = [random_connected, random_tree, random_maxdeg2]
    tally = {"ok": 0, "bad": 0, "bad_step_ts": 0}
    for _ in range(300):
        g = rng.choice(makers)(rng, rng.randint(2, 7))
        ts_masks = set(all_target_set_masks(g))
        table = lambda s: sum(1 << v for v in s) in ts_masks
        for _ in range(20):
            seq = _random_sequence(rng, g, ts_masks)
            for is_ts in (None, table):
                want = reference_validate(g, seq, is_ts)
                assert validate_sequence(g, seq, is_ts) == want, seq.format()
            tally["ok" if want.ok else "bad"] += 1
            tally["bad_step_ts"] += want.first_violation not in (None, -1) and "target" in want.reason
    assert min(tally.values()) >= 300, tally


def test_is_ts_consulted_only_after_removals_and_jumps(fig1):
    seen = []

    def is_ts(s):
        seen.append(s)
        return is_target_set(fig1, s)

    x = frozenset({1, 6, 9, 10})
    seq = ReconfigSequence(x, (Step.add(3), Step.remove(9), Step.add(7), Step.remove(1)), TAR, 4)
    assert validate_sequence(fig1, seq, is_ts).ok
    assert seen == [x, frozenset({1, 3, 6, 10}), frozenset({3, 6, 7, 10})]
    assert all(type(s) is frozenset for s in seen)


def test_tar_to_tj_deep_dip_pairs_fifo():
    """Removes all d vertices, then adds d others; one add re-adds a removed
    vertex.  The adds pair with the removals oldest first, skipping the
    cancelled one.  The restart scan takes cubic time on this shape."""
    d = 3_000
    xs = list(range(1, d + 1))
    ys = [d + i for i in range(1, d + 1)]
    ys[999] = xs[2499]  # the 1000th add cancels the 2500th removal
    seq = ReconfigSequence(
        frozenset(xs),
        tuple(Step.remove(x) for x in xs) + tuple(Step.add(y) for y in ys),
        TAR,
        d,
    )
    tj = tar_to_tj(seq)
    outs = xs[:2499] + xs[2500:]
    ins = ys[:999] + ys[1000:]
    assert tj.steps == tuple(Step.jump(x, y) for x, y in zip(outs, ins))
    assert tj.end == frozenset(ys)


@pytest.mark.parametrize(
    "steps",
    [
        # a run of adds above size k never pairs
        (Step.add(4), Step.add(5), Step.remove(4), Step.remove(5)),
        # an add left without its remove
        (Step.remove(1), Step.add(1), Step.add(1)),
        # removing an absent vertex leaves the dip below size k open
        (Step.remove(9), Step.remove(1), Step.add(1)),
    ],
)
def test_tar_to_tj_rejects_unpaired(steps):
    seq = ReconfigSequence(frozenset({1, 2, 3}), steps, TAR, 3)
    for fn in (tar_to_tj, reference_tar_to_tj):
        with pytest.raises(errors.InvalidInput, match="normalize"):
            fn(seq)
