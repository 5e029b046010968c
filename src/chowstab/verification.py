"""Oracle-equivalence sweeps: closed forms against brute-force enumeration.

Two suites are provided, shared by the test suite and the command line
``oracle-check`` subcommand.

Bundle suite.  The universe is every decomposition with genus in {2, 3},
at most three summands of rank <= 2, |degree| <= 3, |weight| <= 2, twist
r <= 2 and B-degree in -2..3, checked at k = 1..6.  After removing the
symmetry under permuting summands this still leaves ~1.5 million distinct
specs, far beyond an exact-arithmetic budget of a minute, so the sweep is
a two-layer deterministic covering design: the full product over a core
sub-box (summand data restricted to degree and weight in {-1, 0, 1}),
plus a fixed-seed uniform sample of the remaining universe.  Re-running
with the same seed reproduces the same specs bit for bit.

Blowup suite.  The universe -- trace-zero weight vectors with entries in
{-3..3}, nonempty subsets of the three coordinate points with
multiplicities <= 3, sum(alpha) <= m <= 5, k = 1..8 -- is small enough to
enumerate completely, and is.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from . import blowup, p2lab, projbundle
from .exactalg import Poly

__all__ = [
    "Mismatch",
    "projbundle_specs",
    "check_projbundle_spec",
    "run_projbundle_suite",
    "blowup_cases",
    "check_blowup_case",
    "run_blowup_suite",
]

PROJBUNDLE_KMAX = 6
PROJBUNDLE_SAMPLE_SIZE = 2000
BLOWUP_KMAX = 8

_FULL_POOL = tuple(
    projbundle.Summand(rank, degree, weight)
    for rank in (1, 2)
    for degree in range(-3, 4)
    for weight in range(-2, 3)
)
_CORE_POOL = tuple(
    s for s in _FULL_POOL if abs(s.degree) <= 1 and abs(s.weight) <= 1
)
_GENERA = (2, 3)
_TWISTS = (1, 2)
_B_DEGREES = tuple(range(-2, 4))


@dataclass(frozen=True)
class Mismatch:
    """One spec where a closed form and its oracle disagreed."""

    spec: object
    k: int
    closed: tuple
    brute: tuple


def _specs_from_pool(pool) -> list[tuple[projbundle.Summand, ...]]:
    multisets = []
    for s in (1, 2, 3):
        multisets.extend(itertools.combinations_with_replacement(pool, s))
    # P(E) needs dim >= 2, so a single rank-1 summand is out.
    return [ms for ms in multisets if sum(x.rank for x in ms) >= 2]


def projbundle_specs(seed: int = 0):
    """Yield the covering design: the core box exhaustively (31 680 specs),
    then PROJBUNDLE_SAMPLE_SIZE seeded samples of the remaining universe."""
    for summands in _specs_from_pool(_CORE_POOL):
        for genus in _GENERA:
            for r in _TWISTS:
                for b_deg in _B_DEGREES:
                    yield projbundle.CurveBundleSpec(
                        genus=genus, summands=summands, b_deg=b_deg, b_weight=0, r=r)
    rng = random.Random(seed)
    emitted = 0
    while emitted < PROJBUNDLE_SAMPLE_SIZE:
        size = rng.choice((1, 2, 3))
        summands = tuple(sorted(
            (rng.choice(_FULL_POOL) for _ in range(size)),
            key=lambda s: (s.rank, s.degree, s.weight)))
        if sum(s.rank for s in summands) < 2:
            continue
        yield projbundle.CurveBundleSpec(
            genus=rng.choice(_GENERA),
            summands=summands,
            b_deg=rng.choice(_B_DEGREES),
            b_weight=rng.randint(-2, 2),
            r=rng.choice(_TWISTS))
        emitted += 1


def _compare(case, chi: Poly, w: Poly, brute, kmax: int) -> Mismatch | None:
    """The first disagreement of a closed form with its oracle, or None: w(0)
    must vanish, then (chi(k), w(k)) must equal brute(k) for k = 1..kmax."""
    if w.coefficient(0) != 0:
        return Mismatch(case, 0, ("constant-term", w.coefficient(0)), ("expected", 0))
    for k in range(1, kmax + 1):
        closed = (chi.evaluate(k), w.evaluate(k))
        counted = brute(k)
        if closed[0] != counted[0] or closed[1] != counted[1]:
            return Mismatch(case, k, closed, counted)
    return None


def _run_suite(cases, check):
    """(case count, mismatches) of check over a stream of cases."""
    count, mismatches = 0, []
    for count, case in enumerate(cases, start=1):
        if (bad := check(case)) is not None:
            mismatches.append(bad)
    return count, mismatches


def check_projbundle_spec(spec) -> Mismatch | None:
    """Compare (chi(k), w(k)) against the block-sum oracle for k = 1..PROJBUNDLE_KMAX."""
    return _compare(spec, projbundle.euler_char_poly(spec), projbundle.weight_poly(spec),
                    lambda k: projbundle.oracle(spec, k), PROJBUNDLE_KMAX)


def run_projbundle_suite(seed: int = 0):
    """Run the bundle sweep; returns (spec count, mismatches)."""
    return _run_suite(projbundle_specs(seed=seed), check_projbundle_spec)


def blowup_cases():
    """Yield (weights, points, m) over the full documented blowup universe."""
    weight_vectors = [
        w for w in itertools.product(range(-3, 4), repeat=3) if sum(w) == 0
    ]
    configs = []
    for size in (1, 2, 3):
        for axes in itertools.combinations((0, 1, 2), size):
            for alphas in itertools.product((1, 2, 3), repeat=size):
                points = tuple(zip(axes, alphas))
                for m in range(sum(alphas), 6):
                    configs.append((points, m))
    for weights in weight_vectors:
        for points, m in configs:
            yield weights, points, m


def check_blowup_case(weights, points, m) -> Mismatch | None:
    """Compare (chi~(k), w~(k)) against the monomial oracle for k = 1..BLOWUP_KMAX.

    Reads chi~ and the w~ columns from the blowup geometry rather than a
    BlowupSpec, so that boundary inputs with D = deg - sum(alpha/m)^n <= 0
    (legal for the counting identity, not for the invariants) are covered
    as well; each geometry is derived once for all its weight vectors.
    The arguments are refused as oracle_p2 refuses them, in its order and
    before any geometry is derived (TypeError naming the entry, or
    ValueError), and so is a case with no blown point.
    """
    weights, pts = blowup._oracle_arguments(weights, points, m)
    if not pts:
        raise ValueError("at least one blown point is required")
    geometry = blowup._geometry_for(blowup.projective_space_base(2), m,
                                    tuple(alpha for _, alpha in pts))
    data = [p2lab.fixed_point_data(p2lab.DiagAction(weights), {axis}) for axis, _ in pts]
    w = geometry.w_poly(geometry._integer_action(*zip(*data)))
    return _compare((weights, pts, m), geometry.chi, w,
                    lambda k: blowup.oracle_p2(weights, pts, m, k), BLOWUP_KMAX)


def run_blowup_suite():
    """Run the full blowup sweep; returns (case count, mismatches)."""
    return _run_suite(blowup_cases(), lambda case: check_blowup_case(*case))
