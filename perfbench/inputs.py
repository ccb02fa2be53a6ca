"""Seeded input generators and the answer checks for them.

Every check here derives the expected answer from how the input was
built (a closed form, Python's ``re`` module, or the corpus generator's
ground-truth flag) and never from the solver under test.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Optional

# -- wide CI-group systems -------------------------------------------------

#: Language-equal ways of writing (a|b){K}; J stands for K-1.
REWRITINGS = (
    "(a|b){K}",
    "(b|a){K}",
    "(a|b){J}(a|b)",
    "(b|a)(a|b){J}",
    "[ab]{K}",
    "(a|b)(b|a){J}",
)

#: One block of wide-solve shapes (r, n, m): two thirds single-rewriting
#: inputs (every maximize input distinct, like tests/data/wide.dprle) and
#: one third r=2 inputs (language-equal bridge copies repeat maximize
#: inputs, like wider.dprle).  Sizes keep every solve in one latency mode
#: (roughly 80-400 ms on a 2-CPU host under the default configuration).
WIDE_BLOCK = (
    (1, 5, 7), (1, 6, 5), (1, 7, 6), (1, 5, 8), (1, 8, 5), (1, 6, 7),
    (2, 4, 6), (2, 5, 5), (2, 6, 4),
)

#: The ``expired`` serve-mix class: wider.dprle's shape.
WIDER_SHAPE = (4, 7, 7)


@dataclass(frozen=True)
class WideInput:
    r: int
    n: int
    m: int
    source: str

    @property
    def light(self) -> bool:
        """Single-rewriting inputs: no repeated maximize inputs."""
        return self.r == 1


def _window(k: int, forms: list[str]) -> str:
    return "|".join(
        form.replace("K", str(k)).replace("J", str(k - 1)) for form in forms
    )


def wide_input(r: int, n: int, m: int, forms_n: list[str],
               forms_m: list[str], letters: str = "ab") -> WideInput:
    """``va·vb ⊆ W_n``, ``vb·vc ⊆ W_m`` over {a,b}; W_k unions r rewritings.

    ``letters`` renames the alphabet, which gives a system of the same
    shape that shares no language with the {a,b} ones.
    """
    rename = str.maketrans("ab", letters)
    star = "(a|b)*".translate(rename)
    source = (
        "var va, vb, vc;\n"
        f"va <= /{star}/;\n"
        f"vb <= /{star}/;\n"
        f"vc <= /{star}/;\n"
        f"va . vb <= /{_window(n, forms_n).translate(rename)}/;\n"
        f"vb . vc <= /{_window(m, forms_m).translate(rename)}/;\n"
    )
    return WideInput(r, n, m, source)


def random_wide(shape: tuple[int, int, int], rng: random.Random,
                letters: str = "ab") -> WideInput:
    r, n, m = shape
    return wide_input(r, n, m, rng.sample(REWRITINGS, r),
                      rng.sample(REWRITINGS, r), letters)


def wide_blocks(rng: random.Random):
    """An endless stream of :data:`WIDE_BLOCK` blocks in seeded order.

    Within a block every rewriting is used equally often, so blocks
    differ only in which input gets which rewriting.
    """
    while True:
        block = list(WIDE_BLOCK)
        rng.shuffle(block)
        singles = list(REWRITINGS) * 2
        rng.shuffle(singles)
        pairs = []
        for _ in range(2):
            order = list(REWRITINGS)
            rng.shuffle(order)
            pairs += [order[i:i + 2] for i in range(0, len(order), 2)]
        for r, n, m in block:
            source = singles if r == 1 else pairs
            if r == 1:
                forms_n, forms_m = [source.pop()], [source.pop()]
            else:
                forms_n, forms_m = source.pop(), source.pop()
            yield wide_input(r, n, m, forms_n, forms_m)


def check_wide(item: WideInput, witnesses: list[dict[str, str]]) -> Optional[str]:
    """None when the answer is right, else what is wrong.

    The system has exactly min(n,m)+1 maximal assignments: the k-th
    gives va, vb, vc the lengths n-k, k, m-k.  Each assignment's
    witnesses must also concatenate into both windows under ``re``.
    """
    n, m = item.n, item.m
    want = sorted((n - k, k, m - k) for k in range(min(n, m) + 1))
    got = sorted(
        (len(w["va"]), len(w["vb"]), len(w["vc"])) for w in witnesses
    )
    if got != want:
        return f"r={item.r} n={n} m={m}: lengths {got} != {want}"
    for w in witnesses:
        if not re.fullmatch(f"(a|b){{{n}}}", w["va"] + w["vb"]):
            return f"va.vb witness {w['va'] + w['vb']!r} not in (a|b){{{n}}}"
        if not re.fullmatch(f"(a|b){{{m}}}", w["vb"] + w["vc"]):
            return f"vb.vc witness {w['vb'] + w['vc']!r} not in (a|b){{{m}}}"
    return None


# -- small motivating/xss-sized systems --------------------------------------


@dataclass(frozen=True)
class SmallInput:
    """One variable ``v`` under a preg_match filter, in a sink context."""

    source: str
    filter_re: str
    prefix: str
    suffix: str
    attack_re: str


_PREFIXES = ("nid_", "uid=", "page", "id:", "sel_")
_TAGS = (("<b>", "</b>"), ("<i>", "</i>"), ("<em>", "</em>"))
_ATTACKS = ("<script", "onerror=", "javascript:")


def small_input(rng: random.Random, xss: bool) -> SmallInput:
    """Paper Sec. 2's missing-anchor shape, or its XSS flavour."""
    if not xss:
        prefix, suffix = rng.choice(_PREFIXES), ""
        filter_re, attack_re = rng.choice((r"[\d]+$", r"[0-9]+$")), "'"
    else:
        prefix, suffix = rng.choice(_TAGS)
        filter_re, attack_re = r"[\w]+$", rng.choice(_ATTACKS)
    parts = [f'"{prefix}"', "v"] + ([f'"{suffix}"'] if suffix else [])
    source = (
        "var v;\n"
        f"v <= m/{filter_re}/;\n"
        f"{' . '.join(parts)} <= m/{attack_re}/;\n"
    )
    return SmallInput(source, filter_re, prefix, suffix, attack_re)


def check_small(item: SmallInput, witnesses: list[dict[str, str]]) -> Optional[str]:
    """Exactly one assignment whose witness passes the filter and attacks."""
    if len(witnesses) != 1:
        return f"{len(witnesses)} assignments, want 1"
    value = witnesses[0]["v"]
    if not re.search(item.filter_re, value, re.ASCII):
        return f"witness {value!r} fails filter /{item.filter_re}/"
    if not re.search(item.attack_re, item.prefix + value + item.suffix):
        return f"witness {value!r} does not reach /{item.attack_re}/"
    return None


# -- the PHP corpus ----------------------------------------------------------

#: Corpus scale around which each run's scale is jittered (scale 1.0
#: is the paper's size; one file alone takes ~17 s there).
CORPUS_SCALE = 0.1
CORPUS_JITTER = 0.03
#: Applications whose files are analysed three times per pass; their
#: non-vulnerable files form the light class.
LIGHT_APPS = ("eve", "utopia")
LIGHT_COPIES = 3


def corpus_pass(scale: float, rng: random.Random) -> list:
    """One pass: all 76 generated files at ``scale``, with the eve and
    utopia files three times, in seeded order.

    Per-file latency has two modes: eve/utopia files (5-30 ms) and warp
    files (90-150 ms).  In the plain corpus the first mode holds about
    half the files, so the median sits in the gap between them and
    moves with every timing wobble.  Three copies of the small
    applications put the median well inside the first mode and p90
    well inside the second.
    """
    from repro.analysis.corpus import build_corpus

    files = [f for app in build_corpus(scale) for f in app.files]
    files += [f for f in files if f.app in LIGHT_APPS] * (LIGHT_COPIES - 1)
    rng.shuffle(files)
    return files


def corpus_scale(rng: random.Random) -> float:
    """The run's seed-jittered corpus scale."""
    return CORPUS_SCALE * (1 + rng.uniform(-CORPUS_JITTER, CORPUS_JITTER))


def check_analysis(expect_vulnerable: bool, vulnerable: bool,
                   exploits: list[dict[str, str]], quote: str = "'") -> Optional[str]:
    """The verdict matches the generator's flag; an exploit carries the quote.

    A sink query has one input per tainted variable and only the
    injected one needs the quote (guard inputs get empty witnesses), so
    the check is that some input of every vulnerable finding has it.
    """
    if vulnerable != expect_vulnerable:
        return f"verdict {vulnerable}, generator says {expect_vulnerable}"
    for inputs in exploits:
        if not any(quote in value for value in inputs.values()):
            return f"no exploit input contains {quote!r}: {inputs}"
    return None
