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

from .activation import closure_mask, seed_mask, still_target
from .errors import EndpointSizeMismatch, InvalidInput, MalformedLine
from .graph import ThresholdGraph, records, seed_ids

TJ = "tj"
TAR = "tar"
TJN = "tjn"


@dataclasses.dataclass(frozen=True)
class Step:
    """One reconfiguration step: jump(out,in), add(v), remove(v), or noop."""

    kind: str  # "jump" | "add" | "remove" | "noop"
    out: int | None = None
    into: int | None = None

    @staticmethod
    def jump(out: int, into: int) -> "Step":
        if out == into:
            raise InvalidInput(f"jump with out == in == {out}")
        return Step("jump", out, into)

    @staticmethod
    def add(v: int) -> "Step":
        return Step("add", None, v)

    @staticmethod
    def remove(v: int) -> "Step":
        return Step("remove", v, None)

    @staticmethod
    def noop() -> "Step":
        return Step("noop")

    def format(self) -> str:
        if self.kind == "jump":
            return f"j {self.out} {self.into}"
        if self.kind == "add":
            return f"a {self.into}"
        if self.kind == "remove":
            return f"r {self.out}"
        return "n"


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
        cur = self.start
        yield cur
        for st in self.steps:
            cur = apply_step(cur, st)
            yield cur

    @cached_property
    def end(self) -> frozenset[int]:
        cur = set(self.start)
        for st in self.steps:
            _apply_in_place(cur, st)
        return frozenset(cur)

    def format(self) -> str:
        lines = [f"q {self.model} {self.k if self.model == TAR else len(self.start)}"]
        lines.append("s " + " ".join(str(v) for v in sorted(self.start)))
        lines += [st.format() for st in self.steps]
        return "\n".join(lines) + "\n"


def apply_step(current: frozenset[int], step: Step) -> frozenset[int]:
    """Apply a step without legality checks (the validator reports those)."""
    cur = set(current)
    _apply_in_place(cur, step)
    return frozenset(cur)


def _apply_in_place(cur: set[int], step: Step) -> None:
    """``apply_step`` on a mutable set, in O(1)."""
    if step.kind in ("jump", "remove"):
        cur.discard(step.out)
    if step.kind in ("jump", "add"):
        cur.add(step.into)


@dataclasses.dataclass(frozen=True)
class ValidityReport:
    ok: bool
    first_violation: int | None = None  # step index, or -1 for the start set
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


_ALLOWED_KINDS = {TJ: {"jump"}, TAR: {"add", "remove"}, TJN: {"jump", "noop"}}


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
    closure reaches v, which ``activation.still_target`` decides near v.
    ``is_ts`` is called on the same sets; it must be monotone and agree with
    activation on g.
    """
    if seq.model not in _ALLOWED_KINDS:
        return ValidityReport(False, -1, f"unknown model {seq.model!r}")
    for v in seq.start:
        if not 1 <= v <= g.n:
            return ValidityReport(False, -1, f"start contains unknown vertex {v}")
    mask = seed_mask(g, seq.start)
    if not (is_ts(seq.start) if is_ts is not None else closure_mask(g, mask) == g.full_mask):
        return ValidityReport(False, -1, "start set is not a target set")
    if seq.model == TAR and len(seq.start) > seq.k + 1:
        return ValidityReport(False, -1, f"start set exceeds size {seq.k}+1")
    cur = set(seq.start)
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
        _apply_in_place(cur, st)
        if st.kind in ("jump", "remove"):
            mask ^= 1 << st.out
        if st.kind in ("jump", "add"):
            mask |= 1 << st.into
        if seq.model in (TJ, TJN) and len(cur) != size0:
            return ValidityReport(False, i, "TJ/TJN set size changed")
        if seq.model == TAR and len(cur) > seq.k + 1:
            return ValidityReport(False, i, f"set size {len(cur)} exceeds {seq.k}+1")
        if st.kind in ("jump", "remove") and not (
            is_ts(frozenset(cur)) if is_ts is not None else still_target(g, mask, st.out)
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
        if st.kind != "jump":
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
        raise EndpointSizeMismatch(
            f"endpoints have sizes {len(seq.start)}, {len(seq.end)}; expected k={k}"
        )
    for st in seq.steps:
        if st.kind not in ("add", "remove"):
            raise InvalidInput(f"TAR sequence contains step kind {st.kind!r}")

    steps: list[Step] = []
    size = k
    pending = 0  # the add made at size k, once size is k+1
    deferred: deque[tuple[int, int]] = deque()  # (index, vertex), oldest first
    live: dict[int, deque[int]] = {}  # vertex -> indices of its removals still deferred
    for i, st in enumerate(seq.steps):
        if st.kind == "remove":
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
    steps = tuple(st for st in seq.steps if st.kind != "noop")
    return ReconfigSequence(seq.start, steps, TJ)


def reverse_steps(steps) -> tuple[Step, ...]:
    """Steps that undo ``steps``: adds become removes and jumps swap direction."""
    rev: list[Step] = []
    for st in reversed(steps):
        if st.kind == "jump":
            rev.append(Step.jump(st.into, st.out))
        elif st.kind == "add":
            rev.append(Step.remove(st.into))
        elif st.kind == "remove":
            rev.append(Step.add(st.out))
        else:
            rev.append(Step.noop())
    return tuple(rev)


# -- sequence file format -------------------------------------------------
#
#   q <model> <k>
#   s <ids...>
#   j <out> <in> | a <v> | r <v> | n        (one step per line)


def parse_sequence(text: str) -> ReconfigSequence:
    model: str | None = None
    k = 0
    start: frozenset[int] | None = None
    steps: list[Step] = []
    for lineno, parts in records(text):
        try:
            if parts[0] == "q":
                if model is not None or len(parts) != 3:
                    raise MalformedLine(f"line {lineno}: expected single 'q <model> <k>'")
                model = parts[1].lower()
                if model not in (TJ, TAR, TJN):
                    raise MalformedLine(f"line {lineno}: unknown model {parts[1]!r}")
                k = int(parts[2])
                if k < 0:
                    raise MalformedLine(f"line {lineno}: negative k {k}")
            elif parts[0] == "s":
                if model is None or start is not None:
                    raise MalformedLine(f"line {lineno}: 's' line misplaced")
                start = seed_ids(lineno, parts)
            elif parts[0] == "j":
                if len(parts) != 3:
                    raise MalformedLine(f"line {lineno}: expected 'j <out> <in>'")
                steps.append(Step.jump(int(parts[1]), int(parts[2])))
            elif parts[0] == "a":
                if len(parts) != 2:
                    raise MalformedLine(f"line {lineno}: expected 'a <v>'")
                steps.append(Step.add(int(parts[1])))
            elif parts[0] == "r":
                if len(parts) != 2:
                    raise MalformedLine(f"line {lineno}: expected 'r <v>'")
                steps.append(Step.remove(int(parts[1])))
            elif parts[0] == "n":
                if len(parts) != 1:
                    raise MalformedLine(f"line {lineno}: expected 'n'")
                steps.append(Step.noop())
            else:
                raise MalformedLine(f"line {lineno}: unknown line kind {parts[0]!r}")
        except (ValueError, InvalidInput) as exc:  # a non-int id, or a jump onto itself
            raise MalformedLine(f"line {lineno}: {exc}") from exc
    if model is None or start is None:
        raise MalformedLine("missing 'q' or 's' line")
    return ReconfigSequence(start, tuple(steps), model, k)
