"""Reconfiguration sequences: TJ, TAR, and TJN steps, validation, conversions.

A TJ step swaps one vertex of the current target set for one outside it.
A TAR step adds or removes a single vertex; a k-TAR sequence keeps every
intermediate set a target set of size at most k+1.  A TJN step is a TJ step
or a no-op.  Sequences are stored as step lists; the validator reconstructs
the intermediate sets.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from functools import cached_property
from typing import Callable, Iterator

from .activation import is_target_set, still_target
from .errors import InvalidInput, MalformedLine, SizeMismatch
from .graph import ThresholdGraph, ints, records, seed_ids

TJ = "tj"
TAR = "tar"
TJN = "tjn"


@dataclasses.dataclass(frozen=True)
class Step:
    """One reconfiguration step: the vertex it removes and the vertex it adds.

    A jump sets both, an add only ``into``, a remove only ``out``, a noop
    neither; ``kind`` names that shape.
    """

    out: int | None = None
    into: int | None = None

    @staticmethod
    def jump(out: int, into: int) -> "Step":
        if out == into:
            raise InvalidInput(f"jump with out == in == {out}")
        return Step(out, into)

    @staticmethod
    def add(v: int) -> "Step":
        return Step(None, v)

    @staticmethod
    def remove(v: int) -> "Step":
        return Step(v, None)

    @staticmethod
    def noop() -> "Step":
        return Step()

    @property
    def kind(self) -> str:
        return _SHAPES[self.out is not None, self.into is not None][0]

    def format(self) -> str:
        letter = _SHAPES[self.out is not None, self.into is not None][1]
        return " ".join([letter] + [str(v) for v in (self.out, self.into) if v is not None])


# (removes a vertex, adds a vertex) -> kind, sequence-file letter, file usage
_SHAPES = {
    (True, True): ("jump", "j", "j <out> <in>"),
    (False, True): ("add", "a", "a <v>"),
    (True, False): ("remove", "r", "r <v>"),
    (False, False): ("noop", "n", "n"),
}


@dataclasses.dataclass(frozen=True)
class ReconfigSequence:
    """A reconfiguration sequence: start set, step list, and a model tag.

    ``model`` is one of TJ, TAR, TJN; ``k`` is the TAR budget (every
    intermediate set must have size at most k+1) and is ignored for TJ/TJN.
    """

    start: frozenset[int]
    steps: tuple[Step, ...]
    model: str
    k: int = 0

    def __len__(self) -> int:
        return len(self.steps)

    def sets(self) -> Iterator[frozenset[int]]:
        """Yield the |steps|+1 intermediate sets, start first."""
        cur = set(self.start)
        yield self.start
        for st in self.steps:
            yield frozenset(_replay(cur, (st,)))

    @cached_property
    def end(self) -> frozenset[int]:
        return frozenset(_replay(set(self.start), self.steps))

    def format(self) -> str:
        lines = [f"q {self.model} {self.k if self.model == TAR else len(self.start)}"]
        lines.append("s " + " ".join(str(v) for v in sorted(self.start)))
        lines += [st.format() for st in self.steps]
        return "\n".join(lines) + "\n"


def _replay(cur: set[int], steps) -> set[int]:
    """``cur`` after ``steps``, applied in place without legality checks, O(1) a step."""
    for st in steps:
        if st.out is not None:
            cur.discard(st.out)
        if st.into is not None:
            cur.add(st.into)
    return cur


@dataclasses.dataclass(frozen=True)
class ValidityReport:
    ok: bool
    first_violation: int | None = None  # step index, or -1 for the start set
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


# the step shapes, (removes a vertex, adds a vertex), that each model admits
_ALLOWED_SHAPES = {TJ: {(True, True)}, TAR: {(False, True), (True, False)}, TJN: {(True, True), (False, False)}}


def validate_sequence(
    g: ThresholdGraph,
    seq: ReconfigSequence,
    is_ts: Callable[[frozenset[int]], bool] | None = None,
) -> ValidityReport:
    """Check step legality, the target-set property of every intermediate set,
    and the model's size constraint.  Reports the first violation, raising
    nothing.  ``is_ts`` optionally overrides the target-set test (e.g. a
    precomputed table).

    Only the start set and the sets after removals and jumps are tested: a
    superset of a target set is one, so adds and noops cannot fail.  After a
    removal or jump of v from a target set, the new set is one iff its
    closure reaches v, which ``activation.still_target`` decides by
    scanning v's component outside ``cur``, the one current set, until v
    activates, reading only membership in ``cur``, whatever n is.
    ``is_ts`` is called on the same sets; it must be monotone and agree with
    activation on g.
    """
    if seq.model not in _ALLOWED_SHAPES:
        return ValidityReport(False, -1, f"unknown model {seq.model!r}")
    for v in seq.start:
        if not 1 <= v <= g.n:
            return ValidityReport(False, -1, f"start contains unknown vertex {v}")
    if not (is_ts(seq.start) if is_ts is not None else is_target_set(g, seq.start)):
        return ValidityReport(False, -1, "start set is not a target set")
    if seq.model == TAR and len(seq.start) > seq.k + 1:
        return ValidityReport(False, -1, f"start set exceeds size {seq.k}+1")
    cur = set(seq.start)
    allowed = _ALLOWED_SHAPES[seq.model]
    for i, st in enumerate(seq.steps):
        out, into = st.out, st.into
        if (out is not None, into is not None) not in allowed:
            return ValidityReport(False, i, f"step kind {st.kind!r} not allowed in model {seq.model}")
        if out is not None and out not in cur:
            why = f"jump removes {out} which is" if into is not None else f"remove of {out}"
            return ValidityReport(False, i, f"{why} not in the set")
        if into is not None and into in cur:
            why = f"jump adds {into} which is" if out is not None else f"add of {into}"
            return ValidityReport(False, i, f"{why} already in the set")
        if into is not None and not 1 <= into <= g.n:
            why = "jump adds" if out is not None else "add of"
            return ValidityReport(False, i, f"{why} unknown vertex {into}")
        if out is not None:  # the checks above make both in place
            cur.remove(out)
        if into is not None:
            cur.add(into)
        if seq.model == TAR and len(cur) > seq.k + 1:
            return ValidityReport(False, i, f"set size {len(cur)} exceeds {seq.k}+1")
        if out is not None and not (
            is_ts(frozenset(cur)) if is_ts is not None else still_target(g, cur, out)
        ):
            return ValidityReport(
                False, i, f"set after step {i} is not a target set: {sorted(cur)}"
            )
    return ValidityReport(True)


def tj_to_tar(seq: ReconfigSequence) -> ReconfigSequence:
    """Convert each jump(out,in) into add(in) followed by remove(out).

    The intermediate union is a superset of a target set, hence a target set;
    the result is a k-TAR sequence for k = |start| and the length doubles.
    """
    if seq.model != TJ:
        raise InvalidInput(f"expected a TJ sequence, got model {seq.model}")
    steps: list[Step] = []
    for st in seq.steps:
        if st.out is None or st.into is None:
            raise InvalidInput(f"TJ sequence contains step kind {st.kind!r}")
        steps.append(Step.add(st.into))
        steps.append(Step.remove(st.out))
    return ReconfigSequence(seq.start, tuple(steps), TAR, k=len(seq.start))


_UNPAIRED = "TAR sequence did not normalize to add/remove pairs"


def tar_to_tj(seq: ReconfigSequence) -> ReconfigSequence:
    """Convert a TAR(k) sequence with size-k endpoints into a TJ sequence.

    One pass over the steps, tracking the set size.  An add made at size k
    pairs with the next remove into jump(out, in); when both name the same
    vertex the pair is a detour through a superset and is dropped.  A remove
    made at size k or below is deferred, oldest first.  A later add cancels
    the latest deferred removal of the same vertex if there is one, and
    otherwise pairs with the oldest deferred removal into a jump.  This is
    the normal form of moving each remove past the following add whenever
    the set between them has size below k (the TJ = k-TAR argument); a
    sequence whose normal form is not a chain of add/remove pairs at sizes
    k and k+1 raises ``InvalidInput``.
    """
    if seq.model != TAR:
        raise InvalidInput(f"expected a TAR sequence, got model {seq.model}")
    k = seq.k
    if len(seq.start) != k or len(seq.end) != k:
        raise SizeMismatch(
            f"endpoints have sizes {len(seq.start)}, {len(seq.end)}; expected k={k}"
        )
    for st in seq.steps:
        if (st.out is None) == (st.into is None):
            raise InvalidInput(f"TAR sequence contains step kind {st.kind!r}")

    steps: list[Step] = []
    size = k
    pending = 0  # the add made at size k, once size is k+1
    deferred: deque[tuple[int, int]] = deque()  # (index, vertex), oldest first
    live: dict[int, deque[int]] = {}  # vertex -> indices of its removals still deferred
    for i, st in enumerate(seq.steps):
        if st.into is None:
            if size > k:
                if st.out != pending:
                    steps.append(Step.jump(st.out, pending))
            else:
                deferred.append((i, st.out))
                live.setdefault(st.out, deque()).append(i)
            size -= 1
            continue
        if size > k:
            raise InvalidInput(_UNPAIRED)
        if size == k:
            pending = st.into
        elif live.get(st.into):
            live[st.into].pop()
        else:
            while True:  # skip removals that an add has cancelled
                j, v = deferred.popleft()
                if live[v] and live[v][0] == j:
                    break
            live[v].popleft()
            steps.append(Step.jump(v, st.into))
        size += 1
    if size != k:
        raise InvalidInput(_UNPAIRED)
    return ReconfigSequence(seq.start, tuple(steps), TJ)


def strip_noops(seq: ReconfigSequence) -> ReconfigSequence:
    """Drop noop steps from a TJN sequence, yielding a TJ sequence."""
    if seq.model not in (TJN, TJ):
        raise InvalidInput(f"expected a TJN sequence, got model {seq.model}")
    steps = tuple(st for st in seq.steps if st.out is not None or st.into is not None)
    return ReconfigSequence(seq.start, steps, TJ)


def reverse_steps(steps) -> tuple[Step, ...]:
    """Steps that undo ``steps``: each step, last first, with out and in swapped."""
    return tuple(Step(st.into, st.out) for st in reversed(steps))


# -- sequence file format -------------------------------------------------
#
#   q <model> <k>
#   s <ids...>
#   j <out> <in> | a <v> | r <v> | n        (one step per line)


_LETTERS = {letter: (shape, usage) for shape, (_, letter, usage) in _SHAPES.items()}


def parse_sequence(text: str) -> ReconfigSequence:
    model: str | None = None
    k = 0
    start: frozenset[int] | None = None
    steps: list[Step] = []
    for lineno, parts in records(text):
        if parts[0] == "q":
            if model is not None or len(parts) != 3:
                raise MalformedLine(f"line {lineno}: expected single 'q <model> <k>'")
            model = parts[1].lower()
            if model not in (TJ, TAR, TJN):
                raise MalformedLine(f"line {lineno}: unknown model {parts[1]!r}")
            (k,) = ints(lineno, parts[2:])
            if k < 0:
                raise MalformedLine(f"line {lineno}: negative k {k}")
        elif parts[0] == "s":
            if model is None or start is not None:
                raise MalformedLine(f"line {lineno}: 's' line misplaced")
            start = seed_ids(lineno, parts)
            if model != TAR and len(start) != k:
                raise MalformedLine(f"line {lineno}: {len(start)} start ids where the 'q' line says {k}")
        elif parts[0] in _LETTERS:
            if start is None:
                raise MalformedLine(f"line {lineno}: {parts[0]!r} before 's' line")
            (has_out, has_into), usage = _LETTERS[parts[0]]
            if len(parts) != 1 + has_out + has_into:
                raise MalformedLine(f"line {lineno}: expected {usage!r}")
            ids = ints(lineno, parts[1:])
            out = ids[0] if has_out else None
            into = ids[-1] if has_into else None
            try:
                steps.append(Step.jump(out, into) if has_out and has_into else Step(out, into))
            except InvalidInput as exc:  # a jump onto itself
                raise MalformedLine(f"line {lineno}: {exc}") from exc
        else:
            raise MalformedLine(f"line {lineno}: unknown line kind {parts[0]!r}")
    if model is None or start is None:
        raise MalformedLine("missing 'q' or 's' line")
    # a TJ or TJN file carries |start| where a TAR file carries its budget k
    return ReconfigSequence(start, tuple(steps), model, k if model == TAR else 0)
