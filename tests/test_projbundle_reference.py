"""The bundle oracle, its block sums tabled per (ranks, kr) and contracted
with each spec's degrees and weights, against the composition walk that it
replaced (tests/projbundle_reference.py)."""
import itertools

import pytest

from chowstab import projbundle, verification
from chowstab.errors import ResourceLimitError
from chowstab.projbundle import ORACLE_MAX_KR, ORACLE_MAX_SUMMANDS, CurveBundleSpec, Summand, oracle
from projbundle_reference import composition_oracle

# Every 31st spec of the criterion-4 covering design, as in
# test_kernel_reference: 31 is prime to its 2 twists x 6 B-degrees.
BUNDLE_STRIDE = 31

SUMMANDS = (Summand(2, 3, -2), Summand(1, -1, 1), Summand(3, 2, 0), Summand(1, 0, 3))


def test_matches_the_walk_over_the_covering_design():
    checked = 0
    for spec in itertools.islice(verification.projbundle_specs(seed=0), 0, None, BUNDLE_STRIDE):
        for k in range(1, verification.PROJBUNDLE_KMAX + 1):
            assert oracle(spec, k) == composition_oracle(spec, k), (spec, k)
        checked += 1
    assert checked > 1000


@pytest.mark.parametrize("s", range(1, ORACLE_MAX_SUMMANDS + 1))
def test_matches_the_walk_for_every_summand_count(s):
    for r in (1, 2, 3):
        spec = CurveBundleSpec(genus=3, summands=SUMMANDS[:s], b_deg=4, b_weight=1, r=r)
        for k in range(1, 25 // r + 1):
            assert oracle(spec, k) == composition_oracle(spec, k), (spec, k)


def test_matches_the_walk_at_the_guard_edge():
    spec = CurveBundleSpec(genus=2, summands=SUMMANDS, b_deg=-3, b_weight=-1, r=3)
    k = ORACLE_MAX_KR // spec.r
    assert k * spec.r == ORACLE_MAX_KR
    assert oracle(spec, k) == composition_oracle(spec, k)
    with pytest.raises(ResourceLimitError):
        oracle(spec, k + 1)


@pytest.mark.parametrize("s", range(2, ORACLE_MAX_SUMMANDS + 1))
def test_matches_the_walk_in_every_summand_order(s):
    # The tables are keyed by the ranks in spec order; a table keyed by
    # sorted ranks but contracted in spec order fails here.
    for summands in itertools.permutations(SUMMANDS, s):
        for r in (1, 2, 3):
            spec = CurveBundleSpec(genus=2, summands=summands, b_deg=3, b_weight=2, r=r)
            for k in (1, 2, 5):
                assert oracle(spec, k) == composition_oracle(spec, k), (spec, k)


def test_specs_with_the_same_ranks_share_the_tables():
    projbundle._block_sums.cache_clear()
    first = CurveBundleSpec(genus=2, summands=SUMMANDS[:3], b_deg=4, b_weight=1)
    second = CurveBundleSpec(genus=3, summands=(Summand(2, -5, 4), Summand(1, 2, -3),
                                                Summand(3, 0, 1)), b_deg=-1, b_weight=-2)
    for spec, misses, hits in ((first, 6, 0), (second, 6, 6)):
        for k in range(1, 7):
            assert oracle(spec, k) == composition_oracle(spec, k), (spec, k)
        info = projbundle._block_sums.cache_info()
        assert (info.misses, info.hits) == (misses, hits)


def test_reads_no_derived_number_of_the_spec(monkeypatch):
    def refuse(spec):
        raise AssertionError(f"the oracle derived the numbers of {spec}")

    monkeypatch.setattr(projbundle, "_derive", refuse)
    spec = CurveBundleSpec(genus=4, summands=SUMMANDS, b_deg=2, b_weight=-1, r=2)
    for k in range(1, 7):
        assert oracle(spec, k) == composition_oracle(spec, k), (spec, k)
    with pytest.raises(AssertionError, match="derived the numbers"):
        spec.chi
