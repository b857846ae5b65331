"""The mutant table: how many sheaves of a fixed corpus each mutant of
`tests/mutants.py` makes `check`'s verifiers reject, and the all-covers
oracle against the extended verifier under each mutant.

A sheaf counts for a verifier when the verifier, run on a fresh copy under
the mutant, reports a failed cover or raises. The corpus is valid, so the
unmutated code rejects none of it. A count may rise; a change that lowers
one checks less than before, and says why where it is recorded. A mutant
that only makes a verifier pass more (`band-read-one-early`) cannot show on
valid sheaves, so its row pins 0.
"""

import contextlib
import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cellsheaf import enumerate_opens, verify_base_sheaf_axioms, verify_sheaf_axioms_extended
from helpers import CORE_FIELDS, FEW_OPENS, few_opens, random_poset, random_sheaf
from mutants import MUTANTS, fresh_copy


@functools.cache
def corpus() -> tuple:
    """150 sheaves over Q on 2-6 points, dims up to 3."""
    rng = random.Random(7)
    return tuple(random_sheaf(rng, random_poset(rng, rng.randint(2, 6))) for _ in range(150))


def passes(run, sheaf) -> bool:
    """Whether run(a fresh copy of sheaf) is true; false if it raises."""
    try:
        return run(fresh_copy(sheaf))
    except Exception:
        return False


def rejected(verify) -> set[int]:
    """The places in the corpus of the sheaves that `verify` rejects."""
    return {k for k, sheaf in enumerate(corpus()) if not passes(lambda s: verify(s).ok, sheaf)}


# mutant -> sheaves rejected by (the basic verifier, the extended verifier,
# either of them, as `check` runs both). The rank and sign mutants change
# only how a sequence is decided, so they show only where a decided
# sequence has a band with rows, or a psi short of full rank: the canonical
# covers of an antichain have neither.
TABLE = {
    "sections-drop-an-equation-block": (0, 35, 35),
    "sections-drop-a-basis-family": (0, 129, 129),
    "restriction-onto-star-doubled": (0, 147, 147),
    "restriction-columns-swapped": (0, 116, 116),
    "derived-pair-doubled": (41, 41, 41),
    "difference-rows-lose-a-sign": (110, 110, 110),
    "band-read-one-early": (0, 0, 0),
    "rank-one-short": (54, 75, 75),
}


def test_every_mutant_has_a_row():
    assert set(TABLE) == set(MUTANTS)


def test_the_corpus_passes_unmutated():
    assert rejected(verify_base_sheaf_axioms) == rejected(verify_sheaf_axioms_extended) == set()


@pytest.mark.parametrize("name", TABLE)
def test_rejections_are_pinned(name):
    with MUTANTS[name]():
        basic = rejected(verify_base_sheaf_axioms)
        extended = rejected(verify_sheaf_axioms_extended)
    assert (len(basic), len(extended), len(basic | extended)) == TABLE[name]


def small_corpus() -> list:
    return [sheaf for sheaf in corpus()
            if len(sheaf.base) <= 5 and len(enumerate_opens(sheaf.base)) <= FEW_OPENS]


def every_cover_exact(sheaf) -> bool:
    return all(injective and exact
               for _, _, injective, exact in oracles.all_cover_checks_by_loop(sheaf))


@pytest.mark.parametrize("name", [None, *MUTANTS])
@settings(max_examples=30, deadline=None)
@given(sheaf=st.one_of(
    st.builds(lambda base, field, seed: random_sheaf(random.Random(seed), base, field=field),
              few_opens(), st.sampled_from(CORE_FIELDS), st.integers(0, 2**32 - 1)),
    st.sampled_from(small_corpus())))
def test_a_cover_that_fails_fails_the_extended_verifier(name, sheaf):
    """The oracle decides every cover of every open, reading each map and
    section space as the mutant makes it; when one is not exact, the
    extended verifier, which decides one cover per open, fails too."""
    with MUTANTS[name]() if name else contextlib.nullcontext():
        exact = passes(every_cover_exact, sheaf)
        verified = passes(lambda s: verify_sheaf_axioms_extended(s).ok, sheaf)
    assert exact or not verified
    if name is None:
        assert exact and verified
