import dataclasses
import random
import time

import pytest

from tsr import errors
from tsr.generators import random_connected, random_tree
from tsr.oracle import target_sets_by_size, tj_decide
from tsr.solvers import solve_tree
from tsr.reconfig import (
    TAR,
    TJ,
    TJN,
    ReconfigSequence,
    Step,
    ValidityReport,
    apply_step,
    parse_sequence,
    reverse_steps,
    strip_noops,
    tar_to_tj,
    tj_to_tar,
    validate_sequence,
)

X2 = frozenset({1, 6, 9, 10})


def fig1_paper_sequence():
    """A known 3-step route from X2 to Y2 on the fig1 fixture."""
    return ReconfigSequence(
        X2,
        (Step.jump(9, 3), Step.jump(1, 7), Step.jump(6, 9)),
        TJ,
    )


def test_paper_sequence_validates(fig1):
    seq = fig1_paper_sequence()
    assert validate_sequence(fig1, seq).ok
    assert seq.end == {3, 7, 9, 10}


def test_empty_sequence_ok(fig1):
    seq = ReconfigSequence(frozenset({1, 6, 9}), (), TJ)
    assert validate_sequence(fig1, seq).ok
    # a report is truthy exactly when it is ok
    assert validate_sequence(fig1, seq)
    assert bool(ValidityReport(True)) and not ValidityReport(False, -1, "no")


def test_jump_of_absent_vertex_flagged(fig1):
    seq = ReconfigSequence(X2, (Step.jump(2, 3),), TJ)
    rep = validate_sequence(fig1, seq)
    assert not rep.ok and rep.first_violation == 0


def test_non_target_start_flagged(fig1):
    rep = validate_sequence(fig1, ReconfigSequence(frozenset({1}), (), TJ))
    assert not rep.ok and rep.first_violation == -1


def test_intermediate_must_be_target_set(fig1):
    seq = ReconfigSequence(X2, (Step.jump(1, 2),), TJ)
    rep = validate_sequence(fig1, seq)
    assert not rep.ok and "not a target set" in rep.reason


def test_model_constraints(fig1):
    tar = ReconfigSequence(X2, (Step.jump(9, 3),), TAR, k=4)
    assert not validate_sequence(fig1, tar).ok
    tj = ReconfigSequence(X2, (Step.add(3),), TJ)
    assert not validate_sequence(fig1, tj).ok
    tjn = ReconfigSequence(X2, (Step.noop(), Step.jump(9, 3)), TJN)
    assert validate_sequence(fig1, tjn).ok


def test_tar_size_budget(fig1):
    seq = ReconfigSequence(X2, (Step.add(3), Step.add(7)), TAR, k=4)
    rep = validate_sequence(fig1, seq)
    assert not rep.ok and rep.first_violation == 1 and "exceeds" in rep.reason


def test_tj_to_tar_doubles(fig1):
    seq = fig1_paper_sequence()
    tar = tj_to_tar(seq)
    assert len(tar) == 2 * len(seq)
    assert tar.k == 4
    assert validate_sequence(fig1, tar).ok
    assert tar.end == seq.end
    assert max(len(s) for s in tar.sets()) == 5


def test_tj_to_tar_empty():
    seq = ReconfigSequence(frozenset({1}), (), TJ)
    assert len(tj_to_tar(seq)) == 0
    with pytest.raises(errors.InvalidInput) as info:
        tj_to_tar(ReconfigSequence(frozenset({1}), (), TAR, k=1))
    assert str(info.value) == "expected a TJ sequence, got model tar"


def test_tar_to_tj_cancellation():
    # <S, S-x, S> collapses to nothing
    s = frozenset({1, 6, 9})
    seq = ReconfigSequence(s, (Step.remove(6), Step.add(6)), TAR, k=3)
    tj = tar_to_tj(seq)
    assert len(tj) == 0 and tj.start == s


def test_tar_to_tj_single_swap(fig1):
    # <S, S-x, S-x+y> becomes one jump
    s = frozenset({1, 6, 9})
    seq = ReconfigSequence(s, (Step.remove(9), Step.add(10)), TAR, k=3)
    tj = tar_to_tj(seq)
    assert tj.steps == (Step.jump(9, 10),)
    assert validate_sequence(fig1, tj).ok


def test_tar_to_tj_endpoint_mismatch():
    seq = ReconfigSequence(frozenset({1, 2}), (Step.remove(2),), TAR, k=2)
    with pytest.raises(errors.EndpointSizeMismatch):
        tar_to_tj(seq)
    with pytest.raises(errors.InvalidInput) as info:
        tar_to_tj(ReconfigSequence(frozenset({1, 2}), (), TJ))
    assert str(info.value) == "expected a TAR sequence, got model tj"


def test_strip_noops():
    s = frozenset({1})
    seq = ReconfigSequence(s, (Step.noop(), Step.noop()), TJN)
    assert strip_noops(seq).steps == ()
    mixed = ReconfigSequence(s, (Step.noop(), Step.jump(1, 2), Step.noop()), TJN)
    assert strip_noops(mixed).steps == (Step.jump(1, 2),)
    already = ReconfigSequence(s, (Step.jump(1, 2),), TJ)
    assert strip_noops(already).steps == already.steps
    with pytest.raises(errors.InvalidInput) as info:
        strip_noops(ReconfigSequence(s, (), TAR, k=1))
    assert str(info.value) == "expected a TJN sequence, got model tar"


def test_jump_needs_distinct_endpoints():
    with pytest.raises(errors.InvalidInput):
        Step.jump(3, 3)


def test_step_is_its_out_and_into():
    """A step stores the vertex it removes and the vertex it adds, nothing
    else; its kind is read off which of the two is set."""
    assert [f.name for f in dataclasses.fields(Step)] == ["out", "into"]
    steps = [Step.jump(1, 2), Step.add(3), Step.remove(4), Step.noop()]
    assert [st.kind for st in steps] == ["jump", "add", "remove", "noop"]
    assert [st.format() for st in steps] == ["j 1 2", "a 3", "r 4", "n"]


def test_reverse_roundtrip(fig1):
    seq = fig1_paper_sequence()
    rev = ReconfigSequence(seq.end, reverse_steps(seq.steps), seq.model, seq.k)
    assert rev.start == seq.end and rev.end == seq.start
    assert validate_sequence(fig1, rev).ok


def test_reverse_steps_undoes_every_step_shape():
    """Random walks of jumps, adds, removes and noops: the reversed steps lead
    from the walk's end back to its start, and reversing twice is the identity."""
    rng = random.Random(2206)
    shapes = {"jump": 0, "add": 0, "remove": 0, "noop": 0}
    for _ in range(200):
        vertices = range(1, rng.randint(2, 9))
        start = frozenset(v for v in vertices if rng.random() < 0.5)
        cur, steps = start, []
        for _ in range(rng.randint(0, 12)):
            inside, outside = sorted(cur), [v for v in vertices if v not in cur]
            options = [Step.noop()]
            options += [Step.add(rng.choice(outside))] if outside else []
            options += [Step.remove(rng.choice(inside))] if inside else []
            options += [Step.jump(rng.choice(inside), rng.choice(outside))] if inside and outside else []
            st = rng.choice(options)
            steps.append(st)
            shapes[st.kind] += 1
            cur = apply_step(cur, st)
        back = ReconfigSequence(cur, reverse_steps(steps), TJN)
        assert back.end == start
        assert reverse_steps(back.steps) == tuple(steps)
    assert min(shapes.values()) >= 100, shapes


def test_roundtrip_on_oracle_sequences():
    """tar_to_tj(tj_to_tar(.)) preserves endpoints and validity."""
    rng = random.Random(99)
    done = 0
    while done < 25:
        g = random_connected(rng, rng.randint(3, 8))
        by_size = target_sets_by_size(g)
        k = min(by_size)
        masks = by_size[k]
        if len(masks) < 2:
            continue
        x = frozenset(v for v in g.vertices if masks[0] >> v & 1)
        y = frozenset(v for v in g.vertices if masks[-1] >> v & 1)
        rep = tj_decide(g, x, y)
        if not rep.reconfigurable:
            continue
        seq = rep.shortest
        tar = tj_to_tar(seq)
        assert validate_sequence(g, tar).ok
        back = tar_to_tj(tar)
        assert validate_sequence(g, back).ok
        assert back.start == seq.start and back.end == seq.end
        done += 1


def test_sequence_file_roundtrip(fig1):
    """A TJ, a TAR and a TJN sequence each come back whole from their file;
    only a TAR file's 'q' line carries the budget k."""
    tj = fig1_paper_sequence()
    tar = tj_to_tar(tj)
    tjn = ReconfigSequence(X2, (Step.noop(), Step.jump(9, 3), Step.noop()), TJN)
    for seq in (tj, tar, tjn):
        assert parse_sequence(seq.format()) == seq
    assert tar.k == 4 and tj.format().startswith("q tj 4\n")


def test_parse_sequence_errors():
    with pytest.raises(errors.MalformedLine):
        parse_sequence("s 1 2\n")
    with pytest.raises(errors.MalformedLine):
        parse_sequence("q tj 0\nq tj 0\ns 1\n")
    with pytest.raises(errors.MalformedLine):
        parse_sequence("q warp 0\ns 1\n")


def test_parse_sequence_rejects_repeated_start_ids():
    with pytest.raises(errors.MalformedLine) as info:
        parse_sequence("q tj 2\ns 4 2 4\nj 2 1\n")
    assert str(info.value) == "line 2: repeated id 4"


@pytest.mark.parametrize(
    "text,message",
    [
        ("q tj 2\ns 1 2\nj 3 3\n", "line 3: jump with out == in == 3"),
        ("q tj 2\ns 1 2\nn\nn 5 6\n", "line 4: expected 'n'"),
        ("q tar 2\ns 1 2\na 3 4\n", "line 3: expected 'a <v>'"),
        ("q tj 2\ns 1 2\nj 1 x\n", "line 3: invalid literal for int() with base 10: 'x'"),
        ("j 1 3\nq tj 2\ns 1 2\n", "line 1: 'j' before 's' line"),
        ("q tar 2\nr 1\ns 1 2\n", "line 2: 'r' before 's' line"),
    ],
)
def test_parse_sequence_faults_name_their_line(text, message):
    with pytest.raises(errors.MalformedLine) as info:
        parse_sequence(text)
    assert str(info.value) == message


@pytest.mark.parametrize("header", ["q tj 9", "q tjn 2", "q tj 0"])
def test_parse_sequence_rejects_a_size_the_start_set_contradicts(header):
    """A TJ or TJN file's 'q' line carries |start|; any other number is a
    fault of the 's' line, which would otherwise pass and be re-emitted with
    the size of its start set.  A TAR file's number is its budget."""
    with pytest.raises(errors.MalformedLine) as info:
        parse_sequence(f"# route\n{header}\ns 1 6 9\nj 9 3\n")
    assert str(info.value) == f"line 3: 3 start ids where the 'q' line says {header.split()[2]}"
    assert parse_sequence("q tj 3\ns 1 6 9\nj 9 3\n").start == {1, 6, 9}
    assert parse_sequence("q tjn 3\ns 1 6 9\nn\n").start == {1, 6, 9}
    assert parse_sequence("q tar 9\ns 1 6 9\n").k == 9


@pytest.mark.parametrize("model", ["tar", "tj"])
def test_parse_sequence_rejects_negative_k(model):
    with pytest.raises(errors.MalformedLine, match="negative"):
        parse_sequence(f"q {model} -3\ns 1\n")


def _project_to_tjn(sets, side):
    """Turn a projected set sequence into TJN steps (noop where unchanged)."""
    steps = []
    for a, b in zip(sets, sets[1:]):
        pa, pb = a & side, b & side
        if pa == pb:
            steps.append(Step.noop())
        else:
            (out,) = pa - pb
            (into,) = pb - pa
            steps.append(Step.jump(out, into))
    return ReconfigSequence(sets[0] & side, tuple(steps), TJN)


def test_oplus_projection_is_tjn():
    """A TJ-sequence of minimum target sets of a disjoint union projects onto
    either factor as a valid TJN-sequence."""
    from tsr.graph import disjoint_union
    from tsr.oracle import enumerate_target_sets, min_target_set_size

    rng = random.Random(402)
    done = 0
    while done < 12:
        g1 = random_connected(rng, rng.randint(2, 4))
        g2 = random_connected(rng, rng.randint(2, 4))
        g, _ = disjoint_union(g1, g2)
        k = min_target_set_size(g)
        mins = enumerate_target_sets(g, k)
        if len(mins) < 2:
            continue
        x, y = mins[0], mins[-1]
        rep = tj_decide(g, x, y)
        if not rep.reconfigurable:
            continue
        # oracle shortest sequences between minimum sets stay minimum
        sets = list(rep.shortest.sets())
        side1 = frozenset(g1.vertices)
        proj = _project_to_tjn(sets, side1)
        assert validate_sequence(g1, proj).ok
        tj = strip_noops(proj)
        assert validate_sequence(g1, tj).ok
        assert tj.end == y & side1
        done += 1


def _far_pair(rng, g):
    """Two same-size target sets read off opposite orientations of one random
    vertex order (a vertex is in the set when fewer of its neighbors come
    before it than its threshold), padded with random vertices."""
    order = list(g.vertices)
    rng.shuffle(order)
    sets = []
    for seq in (order, order[::-1]):
        pos = {v: i for i, v in enumerate(seq)}
        sets.append({v for v in g.vertices if sum(pos[u] < pos[v] for u in g.adj[v]) < g.tau[v]})
    k = max(map(len, sets))
    for s in sets:
        s.update(rng.sample([v for v in g.vertices if v not in s], k - len(s)))
    return frozenset(sets[0]), frozenset(sets[1])


@pytest.mark.parametrize("model", [TJ, TAR])
def test_validation_scales_on_a_large_tree(model):
    """Validating a route of thousands of steps on an n = 4,000 tree takes well
    under a second: each removal is tested near the removed vertex, not by a
    closure over all n vertices."""
    rng = random.Random(555)
    g = random_tree(rng, 4000)
    x, y = _far_pair(rng, g)
    _, seq = solve_tree(g, x, y, model=model)
    assert len(seq) > 1500
    start = time.perf_counter()
    report = validate_sequence(g, seq)
    elapsed = time.perf_counter() - start
    assert report.ok, report
    assert (seq.start, seq.end) == (x, y)
    assert elapsed < 1.0
