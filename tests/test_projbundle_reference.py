"""The bundle oracle, a product of per-summand series, against the
composition walk that it replaced (tests/projbundle_reference.py)."""
import itertools

import pytest

from chowstab import verification
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
