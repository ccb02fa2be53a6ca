"""Deterministic automata: subset construction, Hopcroft minimization.

The decision procedure itself works on ε-NFAs, but three supporting
operations need determinism: complementation (for subset *checking*),
language equivalence, and canonical minimization (the language
signatures of :mod:`repro.cache`).  DFAs here are always *complete* — every state has
an outgoing transition for every character — with labels forming a
partition of the alphabet universe.
"""

from __future__ import annotations

from collections import deque
from types import MappingProxyType
from typing import Iterable, Optional

from .. import obs
from ..cache import active_cache
from .alphabet import Alphabet
from .backend import active_backend
from .charset import CharSet, minterms
from .nfa import Nfa, _Frozen

__all__ = ["Dfa", "determinize", "complement", "minimize_dfa", "minimize_nfa"]


class Dfa:
    """A complete deterministic automaton over a symbolic alphabet.

    ``transitions[q]`` is a list of ``(label, dst)`` pairs whose labels
    partition ``alphabet.universe``.  Like :class:`Nfa`, a DFA is
    mutable until :meth:`freeze`, after which its transitions are a
    read-only mapping of tuples and every write raises; :meth:`copy`
    always returns a mutable machine.
    """

    frozen = False

    def __init__(
        self,
        alphabet: Alphabet,
        transitions: dict[int, list[tuple[CharSet, int]]],
        start: int,
        finals: set[int],
    ):
        self.alphabet = alphabet
        self.transitions = transitions
        self.start = start
        self.finals = finals

    def freeze(self) -> None:
        """Make this DFA immutable, in place (idempotent)."""
        self.__dict__.update(
            transitions=MappingProxyType(
                {state: tuple(moves) for state, moves in self.transitions.items()}
            ),
            finals=frozenset(self.finals),
        )
        self.__class__ = _FrozenDfa

    def copy(self) -> "Dfa":
        """A mutable copy sharing only immutable pieces (labels, ids)."""
        return Dfa(
            self.alphabet,
            {state: list(moves) for state, moves in self.transitions.items()},
            self.start,
            set(self.finals),
        )

    @property
    def num_states(self) -> int:
        return len(self.transitions)

    @property
    def states(self) -> Iterable[int]:
        return self.transitions.keys()

    def delta(self, state: int, char: str | int) -> int:
        """The unique successor of ``state`` on ``char``.

        ``char`` must be drawn from the alphabet universe; a complete
        DFA partitions exactly that universe, so a character outside it
        has no successor *by construction*, not because the machine is
        broken.  The two failure modes get distinct errors.
        """
        cp = char if isinstance(char, int) else ord(char)
        for label, dst in self.transitions[state]:
            if cp in label:
                return dst
        if cp not in self.alphabet.universe:
            raise ValueError(
                f"character {cp!r} is outside the "
                f"{self.alphabet.name} alphabet universe"
            )
        raise ValueError(f"incomplete DFA: no move from {state} on {cp!r}")

    def accepts(self, text: str) -> bool:
        """Membership in ``L(self)``.

        Strings using characters outside the alphabet universe are
        simply not in the language (``L ⊆ Σ*``), so they answer False
        rather than raising.
        """
        if not self.alphabet.contains_string(text):
            return False
        state = self.start
        for ch in text:
            state = self.delta(state, ch)
        return state in self.finals

    def complemented(self) -> "Dfa":
        """A mutable copy with final and non-final states swapped."""
        clone = self.copy()
        clone.finals = set(self.transitions) - self.finals
        return clone

    def is_empty(self) -> bool:
        seen = {self.start}
        queue = deque([self.start])
        while queue:
            state = queue.popleft()
            if state in self.finals:
                return False
            for _, dst in self.transitions[state]:
                if dst not in seen:
                    seen.add(dst)
                    queue.append(dst)
        return True

    def to_nfa(self) -> Nfa:
        """View this DFA as an NFA (states are renumbered densely)."""
        nfa = Nfa(self.alphabet)
        mapping = {state: nfa.add_state() for state in sorted(self.transitions)}
        for src, moves in self.transitions.items():
            for label, dst in moves:
                nfa.add_transition(mapping[src], label, mapping[dst])
        nfa.starts = {mapping[self.start]}
        nfa.finals = {mapping[s] for s in self.finals}
        return nfa

    def __repr__(self) -> str:
        return f"<Dfa states={self.num_states} finals={len(self.finals)}>"


class _FrozenDfa(_Frozen, Dfa):
    pass


def determinize(nfa: Nfa) -> Dfa:
    """Subset construction producing a complete DFA.

    Symbolic labels are handled by mintermizing the labels leaving each
    subset state, so the construction never enumerates individual
    characters.  Memoized per machine by the active language cache.
    """
    cache = active_cache()
    if cache is not None:
        return cache.determinize(nfa)
    return _determinize_instrumented(nfa)


def _determinize_instrumented(nfa: Nfa) -> Dfa:
    obs.count_operation("determinize")
    backend = active_backend()
    with obs.span(
        "determinize", states_in=nfa.num_states, backend=backend.name
    ) as sp:
        dfa = backend.determinize(nfa)
        sp.set("states_out", dfa.num_states)
        return dfa


def _determinize(nfa: Nfa) -> Dfa:
    alphabet = nfa.alphabet
    universe = alphabet.universe

    start_set = nfa.epsilon_closure(nfa.starts)
    ids: dict[frozenset[int], int] = {start_set: 0}
    order: list[frozenset[int]] = [start_set]
    transitions: dict[int, list[tuple[CharSet, int]]] = {}
    finals: set[int] = set()
    sink: Optional[int] = None

    def intern(subset: frozenset[int]) -> int:
        if subset not in ids:
            ids[subset] = len(order)
            order.append(subset)
        return ids[subset]

    index = 0
    while index < len(order):
        subset = order[index]
        state_id = ids[subset]
        index += 1
        obs.visit_states(len(subset))
        if subset & nfa.finals:
            finals.add(state_id)
        labels = nfa.labels_from(subset)
        moves: list[tuple[CharSet, int]] = []
        covered = CharSet.empty()
        by_target: dict[int, CharSet] = {}
        for block in minterms(labels):
            rep = block.min_char()
            target = frozenset(nfa.step(subset, rep))
            target_id = intern(target)
            by_target[target_id] = by_target.get(target_id, CharSet.empty()) | block
            covered = covered | block
        rest = universe - covered
        if not rest.is_empty():
            if sink is None:
                sink_set = frozenset()
                sink = intern(sink_set)
            by_target[sink] = by_target.get(sink, CharSet.empty()) | rest
        moves = sorted(by_target.items(), key=lambda kv: kv[0])
        transitions[state_id] = [(label, dst) for dst, label in moves]

    # The sink (if created) may not have been expanded yet; complete it.
    for state_id in range(len(order)):
        if state_id not in transitions:
            transitions[state_id] = [(universe, state_id)]
    return Dfa(alphabet, transitions, 0, finals)


def complement(nfa: Nfa) -> Nfa:
    """The NFA for ``Σ* \\ L(nfa)``; signature-memoized when cached."""
    cache = active_cache()
    if cache is not None:
        return cache.complement(nfa)
    return _complement_instrumented(nfa)


def _complement_instrumented(nfa: Nfa) -> Nfa:
    obs.count_operation("complement")
    with obs.span("complement", states_in=nfa.num_states) as sp:
        result = determinize(nfa).complemented().to_nfa()
        sp.set("states_out", result.num_states)
        return result


def minimize_dfa(dfa: Dfa) -> Dfa:
    """Hopcroft's partition-refinement minimization.

    Symbolic labels are first globally mintermized; each block then acts
    as one input symbol for the classic algorithm.  Unreachable states
    are dropped before refinement.
    """
    obs.count_operation("minimize")
    backend = active_backend()
    with obs.span(
        "hopcroft", states_in=dfa.num_states, backend=backend.name
    ) as sp:
        out = backend.minimize_dfa(dfa)
        sp.set("states_out", out.num_states)
        return out


def _minimize_dfa(dfa: Dfa) -> Dfa:
    # Restrict to reachable states.
    reachable = {dfa.start}
    queue = deque([dfa.start])
    while queue:
        state = queue.popleft()
        for _, dst in dfa.transitions[state]:
            if dst not in reachable:
                reachable.add(dst)
                queue.append(dst)

    # Sorted so partition refinement sees a state order that is a
    # function of the machine, not of set iteration order.
    all_labels = [
        label
        for state in sorted(reachable)
        for label, _ in dfa.transitions[state]
    ]
    symbols = minterms(all_labels)
    reps = [block.min_char() for block in symbols]

    # delta[s][k] = successor of s on symbol block k.
    delta: dict[int, list[int]] = {}
    for state in sorted(reachable):
        row = []
        for rep in reps:
            row.append(dfa.delta(state, rep))
        delta[state] = row
        obs.visit_states(1)

    # preds[k][t] = states stepping to t on block k.
    preds: list[dict[int, set[int]]] = [dict() for _ in symbols]
    for state in reachable:
        for k, target in enumerate(delta[state]):
            preds[k].setdefault(target, set()).add(state)

    finals = dfa.finals & reachable
    nonfinals = reachable - finals
    partition: list[set[int]] = [blk for blk in (finals, nonfinals) if blk]
    member: dict[int, int] = {}
    for idx, blk in enumerate(partition):
        for state in blk:
            member[state] = idx
    worklist: deque[int] = deque(range(len(partition)))

    while worklist:
        splitter_idx = worklist.popleft()
        splitter = set(partition[splitter_idx])
        for k in range(len(symbols)):
            incoming: set[int] = set()
            for target in splitter:
                incoming |= preds[k].get(target, set())
            touched: dict[int, set[int]] = {}
            for state in incoming:
                touched.setdefault(member[state], set()).add(state)
            for blk_idx, moved in touched.items():
                block = partition[blk_idx]
                if len(moved) == len(block):
                    continue
                remainder = block - moved
                partition[blk_idx] = moved
                new_idx = len(partition)
                partition.append(remainder)
                for state in remainder:
                    member[state] = new_idx
                # Re-examine both halves.  Classic Hopcroft can get away
                # with only the smaller one by tracking worklist
                # membership; re-adding both is simpler and still
                # terminates (every split strictly grows the partition).
                worklist.append(blk_idx)
                worklist.append(new_idx)

    # Build the quotient machine.
    transitions: dict[int, list[tuple[CharSet, int]]] = {}
    for blk_idx, block in enumerate(partition):
        rep_state = next(iter(block))
        by_target: dict[int, CharSet] = {}
        for k, symbol in enumerate(symbols):
            target_blk = member[delta[rep_state][k]]
            by_target[target_blk] = by_target.get(target_blk, CharSet.empty()) | symbol
        covered = CharSet.empty()
        for cs in by_target.values():
            covered = covered | cs
        rest = dfa.alphabet.universe - covered
        if not rest.is_empty():
            # Characters not appearing in any label all behave like the
            # original machine's sink moves; route them with the block
            # containing the representative's behaviour on such chars.
            target_blk = member[dfa.delta(rep_state, rest.min_char())]
            by_target[target_blk] = by_target.get(target_blk, CharSet.empty()) | rest
        transitions[blk_idx] = [(cs, dst) for dst, cs in sorted(by_target.items())]
    new_finals = {member[s] for s in finals}
    return Dfa(dfa.alphabet, transitions, member[dfa.start], new_finals)


def minimize_nfa(nfa: Nfa) -> Nfa:
    """Canonical minimal *deterministic* machine for ``L(nfa)``, as an NFA.

    This is the intermediate-machine minimization the paper suggests
    (Sec. 4) as a remedy for the ``secure`` outlier.  With a language
    cache active the minimal
    machine falls out of the signature computation and is memoized by
    signature, so equivalent machines minimize once.
    """
    cache = active_cache()
    if cache is not None:
        return cache.minimize(nfa)
    return _minimize_nfa_instrumented(nfa)


def _minimize_nfa_instrumented(nfa: Nfa) -> Nfa:
    with obs.span("minimize", states_in=nfa.num_states) as sp:
        out = minimize_dfa(determinize(nfa)).to_nfa().trim()
        sp.set("states_out", out.num_states)
        return out
