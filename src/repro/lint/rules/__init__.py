"""The rule registry: pluggable lint rules, resolved by name.

A rule is a named object with a tuple of L-codes it may emit and a
``check(ctx)`` generator over :class:`~repro.lint.engine.FileContext`.
Rules register themselves at import time via :func:`register_rule`;
out-of-tree rules (e.g. a deployment-specific policy) can register the
same way before calling :func:`repro.lint.run_lint`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from ..diagnostics import LintFinding
from ..engine import FileContext

__all__ = ["Rule", "register_rule", "available_rules", "get_rule", "all_codes"]


@dataclass(frozen=True)
class Rule:
    """One registered lint rule."""

    name: str
    codes: tuple[str, ...]
    description: str
    check: Callable[[FileContext], Iterable[LintFinding]]


_REGISTRY: dict[str, Rule] = {}


def register_rule(rule: Rule) -> None:
    """Register a rule under its name; re-registration replaces (last
    wins)."""
    _REGISTRY[rule.name] = rule


def available_rules() -> tuple[str, ...]:
    """Registered rule names, sorted for deterministic runs."""
    return tuple(sorted(_REGISTRY))


def get_rule(name: str) -> Rule:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(available_rules()) or "none"
        raise KeyError(f"unknown lint rule {name!r} (registered: {known})") from None


def all_codes() -> tuple[str, ...]:
    """Every L-code any registered rule may emit, sorted."""
    codes: set[str] = set()
    for rule in _REGISTRY.values():
        codes.update(rule.codes)
    return tuple(sorted(codes))


def iter_rules() -> Iterator[Rule]:
    for name in available_rules():
        yield _REGISTRY[name]


# Built-in rules register on import.
from . import cache as _cache  # noqa: E402,F401
from . import determinism as _determinism  # noqa: E402,F401
from . import fork as _fork  # noqa: E402,F401
from . import metrics as _metrics  # noqa: E402,F401
from . import purity as _purity  # noqa: E402,F401
from . import timing as _timing  # noqa: E402,F401
