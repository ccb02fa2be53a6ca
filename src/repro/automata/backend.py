"""The automata backend protocol: two kernel sets for the hot paths.

Per the observability spans, ``determinize``, ``product``, and Hopcroft
minimization dominate solver wall time.  This module factors those
kernels behind a small protocol with two implementations:

* :class:`~repro.automata.bitset.BitsetBackend` (name ``"bitset"``) —
  the production kernels, over Python ``int`` bitmasks: NFA state sets
  are single integers, transition relations are per-minterm bitset
  rows, subset construction and inclusion run by bitwise frontier
  propagation, and Hopcroft refines integer partition arrays.
* :class:`ReferenceBackend` (name ``"reference"``) — the original
  dict-of-dicts kernels in :mod:`repro.automata.dfa` and
  :mod:`repro.automata.ops`.  Simple, readable, and the test oracle the
  bitset kernels are property-tested against.

Bitset is always the default.  :func:`use_backend` installs the other
kernel set for a dynamic extent, scoped like the language cache
(:mod:`repro.cache`): a context variable consulted by the instrumented
entry points in ``dfa``/``ops``/``equivalence``.  The property suites
use it to run the oracle.

Backends must be *stateless* (all per-call state lives in compiled
views of the operand machines): instances are shared across solves and
across the multiprocess worker pool, which re-installs the parent's
backend by name in every worker task.

Semantics contract (property-tested in ``tests/backend/``):

* ``determinize``/``minimize_dfa``/``complement`` must be
  language-faithful; the minimal DFA is canonical, so language
  signatures (:mod:`repro.cache`) are identical across backends and
  cached results stay backend-portable.
* ``product`` must be *structure*-faithful: the same states in the
  same intern order, the same edges with the same bridge tags and
  provenance, because the GCI procedure reads bridge-crossing
  structure off its output.
* ``is_empty``/``is_subset`` are plain boolean oracles.
* ``left_quotient`` must be language-faithful; its output is only
  ever consumed as a language (Galois maximization, signatures), so a
  backend may merge transitions that share a destination.

See ``docs/BACKENDS.md`` for the full contract.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import TYPE_CHECKING, Iterator, Optional, Protocol, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .dfa import Dfa
    from .nfa import Nfa

__all__ = [
    "AutomataBackend",
    "ReferenceBackend",
    "get_backend",
    "active_backend",
    "use_backend",
]


class AutomataBackend(Protocol):
    """The kernel set a backend must provide.

    All operations receive and return the shared
    :class:`~repro.automata.nfa.Nfa` / :class:`~repro.automata.dfa.Dfa`
    types over the shared :class:`~repro.automata.alphabet.Alphabet`
    and :class:`~repro.automata.charset.CharSet`; a backend is free to
    compile them into any internal representation it likes, but the
    boundary types never change.
    """

    name: str

    def determinize(self, nfa: "Nfa") -> "Dfa":
        """Subset construction producing a complete DFA."""
        ...

    def minimize_dfa(self, dfa: "Dfa") -> "Dfa":
        """Hopcroft minimization of a complete DFA."""
        ...

    def product(
        self, a: "Nfa", b: "Nfa"
    ) -> tuple["Nfa", dict[int, tuple[int, int]]]:
        """Cross-product intersection with provenance (structure-faithful)."""
        ...

    def complement(self, nfa: "Nfa") -> "Nfa":
        """The NFA for ``Σ* \\ L(nfa)``."""
        ...

    def is_empty(self, nfa: "Nfa") -> bool:
        """True iff ``L(nfa)`` is empty."""
        ...

    def is_subset(self, a: "Nfa", b: "Nfa") -> bool:
        """Decide ``L(a) ⊆ L(b)``."""
        ...

    def left_quotient(self, prefixes: "Nfa", language: "Nfa") -> "Nfa":
        """The universal left quotient (language-faithful).

        Backends may merge same-destination transitions, so two
        backends' outputs are language-equal but not necessarily
        structurally identical; callers must treat the result as a
        language, never read structure off it.
        """
        ...


class ReferenceBackend:
    """The original pure-Python dict-of-dicts kernels.

    Every method delegates to the historical implementation; this class
    only gives them a protocol-shaped home.  It is the semantic
    baseline: other backends are property-tested against it.
    """

    name = "reference"

    def determinize(self, nfa: "Nfa") -> "Dfa":
        from .dfa import _determinize

        return _determinize(nfa)

    def minimize_dfa(self, dfa: "Dfa") -> "Dfa":
        from .dfa import _minimize_dfa

        return _minimize_dfa(dfa)

    def product(
        self, a: "Nfa", b: "Nfa"
    ) -> tuple["Nfa", dict[int, tuple[int, int]]]:
        from .ops import _product_reference

        return _product_reference(a, b)

    def complement(self, nfa: "Nfa") -> "Nfa":
        return self.determinize(nfa).complemented().to_nfa()

    def is_empty(self, nfa: "Nfa") -> bool:
        return nfa.is_empty()

    def is_subset(self, a: "Nfa", b: "Nfa") -> bool:
        from .equivalence import counterexample

        return counterexample(a, b) is None

    def left_quotient(self, prefixes: "Nfa", language: "Nfa") -> "Nfa":
        from .ops import _left_quotient

        return _left_quotient(prefixes, language)


# -- lookup by name ----------------------------------------------------------

_instances: dict[str, AutomataBackend] = {}


def get_backend(name: str) -> AutomataBackend:
    """The shared, stateless backend named ``"bitset"`` or ``"reference"``."""
    instance = _instances.get(name)
    if instance is not None:
        return instance
    if name == "bitset":
        from .bitset import BitsetBackend

        instance = BitsetBackend()
    elif name == "reference":
        instance = ReferenceBackend()
    else:
        raise ValueError(
            f"unknown automata backend {name!r} (expected bitset or reference)"
        )
    _instances[name] = instance
    return instance


# -- the contextvar scope ----------------------------------------------------

_active: ContextVar[Optional[AutomataBackend]] = ContextVar(
    "dprle_automata_backend", default=None
)


def active_backend() -> AutomataBackend:
    """The backend for the current dynamic extent.

    The backend installed by :func:`use_backend`, else bitset.
    """
    current = _active.get()
    if current is not None:
        return current
    return get_backend("bitset")


@contextmanager
def use_backend(
    backend: Union[str, AutomataBackend, None],
) -> Iterator[AutomataBackend]:
    """Install ``backend`` (a name or an instance) for the block.

    ``None`` is a no-op that yields the currently active backend.
    """
    if backend is None:
        yield active_backend()
        return
    if isinstance(backend, str):
        backend = get_backend(backend)
    token = _active.set(backend)
    try:
        yield backend
    finally:
        _active.reset(token)
