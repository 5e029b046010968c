"""Blowups of the projective plane: fixed-point data, vanishing loci, search.

Two point configurations are covered, matching the two families where the
plane blown up at points carries residual torus actions worth studying:

* ``four_points_three_aligned`` -- p1 = (1:0:0), p2 = (0:1:0) and two more
  points on the line {x0 = 0}.  A single one-parameter group survives,
  generated by diag(t^2, t^-1, t^-1).  The vanishing of F_1 and F_2 on the
  polarization twisted by m and multiplicities alpha_1..alpha_4 is cut out
  by two homogeneous polynomials psi_1 (quartic) and psi_2 (cubic) in
  (m, alpha); psi_1 has a triple point at (1,1,0,0,0), which makes its
  rational zeros dense and drives the search for integer polarizations
  with F_1 = 0 but F_2 != 0 (asymptotically Chow unstable, yet cscK for
  suitable classes).
* ``three_general`` -- the three coordinate points, with the torus
  generated by diag(t,t^-1,1) and diag(1,t,t^-1).  Here F_1 and F_2 vanish
  together, exactly on {alpha_1 = alpha_2 = alpha_3} union
  {alpha_1 + alpha_2 + alpha_3 = m} inside the ample cone.

psi_reconstruct(config, action) runs the blowup point-sum formula on
polynomial generators for any configuration and any diagonal action fixing
its points, giving psi_l in (m, a1, ..., a<number of points>) with
F_l = psi_l / deg^2, each proved where it is built to equal F_l * deg^2
from chi~ and w~ on the same generators, as polynomials.  One bounded
cache holds each (config, action)'s polynomials with their compiled
integer evaluators.  The search evaluates those of the four-point family
and re-verifies every candidate through the full pipeline;
three_point_loci evaluates those of the two three-point generators.

At a fixed point whose nonzero coordinates form a block on which the
diagonal action has a single weight, the normalized moment-map value is
that block weight and the isotropy weight is the sum of the outside
weights minus the block weight, once per outside direction.  Of the four
possible sign conventions for (phi, lambda) exactly this one makes the
symbolic reconstruction reproduce the closed-form quartic; it is frozen
here and covered by a calibration test.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd

from . import blowup, chowcore
from .errors import CrossCheckError, ResourceLimitError
from .exactalg import MPoly, _require_int_seq, _require_ints
from .blowup import BlownPoint, BlowupSpec, projective_space_base

__all__ = [
    "DiagAction",
    "PointConfig",
    "Candidate",
    "FOUR_POINTS_THREE_ALIGNED",
    "THREE_GENERAL",
    "PSI_VARIABLES",
    "fixed_point_data",
    "psi_reconstruct",
    "triple_point_check",
    "ample_check",
    "three_point_loci",
    "search_unstable",
]

FOUR_POINTS_THREE_ALIGNED = "four_points_three_aligned"
THREE_GENERAL = "three_general"

# Variables of the aligned four-point family's psi.
PSI_VARIABLES = ("m", "a1", "a2", "a3", "a4")

# Vanishing-locus polynomials live in P^4 with homogeneous point (m, a1..a4);
# the triple point of the quartic sits at m = a1 = 1, a2 = a3 = a4 = 0.
_BASE_POINT = (1, 1, 0, 0, 0)

# Largest accepted grid_bound.  The sweep visits 678 721 lines at b = 8, and
# search_unstable(8, 1) takes about 6 s on one core of a 2-vCPU x86-64 host.
SEARCH_MAX_GRID_BOUND = 8

# Largest accepted scale_bound.  Ampleness is invariant under scaling, so
# each scale re-verifies every ample point, about 1 ms a candidate:
# search_unstable(8, 8) gives 11 080 candidates in about 17 s on the same
# host, against 1 385 in about 8 s at (8, 1).
SEARCH_MAX_SCALE_BOUND = 8


@dataclass(frozen=True)
class DiagAction:
    """Diagonal one-parameter group diag(t^w0, t^w1, t^w2) with trace zero.

    Trace zero makes the total weight on every space of plane sections
    vanish, which is exactly the normalized linearization the blowup
    formulas assume on the base.
    """

    w: tuple[int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "w", tuple(self.w))
        if len(self.w) != 3:
            raise ValueError("expected three weights")
        _require_int_seq("w", self.w)
        if sum(self.w) != 0:
            raise ValueError("weights must sum to zero")


_NAMED_BLOCKS = {FOUR_POINTS_THREE_ALIGNED: tuple(map(frozenset, ({0}, {1}, {1, 2}, {1, 2}))),
                 THREE_GENERAL: tuple(map(frozenset, ({0}, {1}, {2})))}


@dataclass(frozen=True)
class PointConfig:
    """A configuration of blown points, each known by its coordinate block
    (the set of indices where its coordinates are nonzero).  A named kind
    must carry its classmethod's blocks; any other kind is accepted."""

    kind: str
    blocks: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(_coordinate_block(b) for b in self.blocks))
        if self.blocks != _NAMED_BLOCKS.get(self.kind, self.blocks):
            raise ValueError(f"a {self.kind} configuration needs the blocks of its classmethod")

    @classmethod
    def four_points_three_aligned(cls) -> "PointConfig":
        return cls(FOUR_POINTS_THREE_ALIGNED, _NAMED_BLOCKS[FOUR_POINTS_THREE_ALIGNED])

    @classmethod
    def three_general(cls) -> "PointConfig":
        return cls(THREE_GENERAL, _NAMED_BLOCKS[THREE_GENERAL])


@dataclass(frozen=True)
class Candidate:
    """An integer polarization of the four-point blowup with F_1 = 0 and
    F_2 != 0, i.e. asymptotically Chow unstable; ``verified`` records that
    the full invariant pipeline confirmed both values."""

    m: int
    alphas: tuple[int, int, int, int]
    psi1_value: Fraction
    psi2_value: Fraction
    ample: bool
    verified: bool


def _coordinate_block(block) -> frozenset[int]:
    """``block`` as a frozenset; ValueError unless it is a nonempty subset of {0, 1, 2}."""
    idx = frozenset(block)
    if not idx or not idx <= {0, 1, 2}:
        raise ValueError(f"coordinate block must be a nonempty subset of {{0,1,2}}: {set(block)}")
    return idx


def fixed_point_data(action: DiagAction, block) -> tuple[Fraction, int]:
    """Moment-map value and isotropy weight at a fixed point with the given block.

    The point is fixed iff the action has a single weight on its block;
    then phi is that common weight and lambda sums w_i - w_block over the
    directions outside the block.
    """
    if not isinstance(action, DiagAction):
        raise TypeError(f"action must be a DiagAction, got {action!r}")
    idx = _coordinate_block(block)
    weights = {action.w[i] for i in idx}
    if len(weights) != 1:
        raise ValueError(f"point with block {set(idx)} is not fixed by weights {action.w}")
    w_block = weights.pop()
    lam = sum(action.w[i] - w_block for i in range(3) if i not in idx)
    return Fraction(w_block), lam


def _plane_blowup(config: PointConfig, action: DiagAction, m: int, alphas) -> BlowupSpec:
    """The plane blown up at the points of ``config`` with multiplicities
    ``alphas``, twisted by m, with the fixed-point data of ``action``."""
    points = tuple(BlownPoint(alpha, *fixed_point_data(action, block))
                   for block, alpha in zip(config.blocks, alphas))
    return BlowupSpec(base=projective_space_base(2), points=points, m=m)


# Entries are a few small polynomials and two compiled functions; the
# library itself reconstructs three (config, action) pairs.
_PSI_CACHE_SIZE = 16


def _default_action(config: PointConfig) -> DiagAction:
    if config.kind != FOUR_POINTS_THREE_ALIGNED:
        raise ValueError(f"an action is required for the {config.kind} configuration")
    return DiagAction((2, -1, -1))


@lru_cache(maxsize=_PSI_CACHE_SIZE)
def _psi(config: PointConfig, action: DiagAction):
    """(psi_1, psi_2) of (config, action), each proved equal to F_l * deg^2
    as a polynomial, and their compiled integer evaluators."""
    data = [fixed_point_data(action, b) for b in config.blocks]
    phis, lams = zip(*data)
    base = projective_space_base(2)
    n = base.n
    indices = range(1, len(config.blocks) + 1)
    ratios = MPoly.generators(tuple(f"x{j}" for j in indices))
    sums = blowup.futaki_point_sums(n, base.a, ratios, phis, lams)
    variables = ("m",) + tuple(f"a{j}" for j in indices)
    m, *alphas = MPoly.generators(variables)
    # deg = n! a_0 for the leading coefficient a_0 of chi~, so
    # F_l * deg^2 = (n!)^2 (a_0 b_l - b_0 a_l).
    pipeline = chowcore._futaki_numerators(blowup.chi_tilde_coeffs(n, base.a, m, alphas),
                                           blowup.w_tilde_coeffs(n, m, alphas, phis, lams))
    polys = []
    for ell, (total, numerator) in enumerate(zip(sums, pipeline), start=1):
        # F_l = total / (D^2 m^{l-1}) and deg^2 = m^{2n} D^2, so clearing the
        # prefactors amounts to substituting x_j = alpha_j/m into total and
        # multiplying by m^{2n+1-l}: each monomial x^e becomes
        # alpha^e m^{2n+1-l-|e|}, a polynomial since total has degree <= 2n+1-l.
        target = 2 * n + 1 - ell
        terms = {}
        for exps, coeff in total.terms():
            spare = target - sum(exps)
            if spare < 0:
                raise CrossCheckError(
                    f"point sum for F_{ell} of {config.kind} under diag{action.w} exceeds "
                    f"the clearing degree {target}: term {exps} with coefficient {coeff}")
            terms[(spare,) + exps] = coeff
        psi, expected = MPoly(variables, terms), factorial(n) ** 2 * numerator
        if psi != expected:
            raise CrossCheckError(
                f"psi_{ell} of {config.kind} under diag{action.w} disagrees with "
                f"F_{ell} * deg^2 from chi~ and w~: psi_{ell} = {psi.pretty()}, "
                f"pipeline {expected.pretty()}")
        polys.append(psi)
    return tuple(polys), tuple(_compile_int_poly(p) for p in polys)


def psi_reconstruct(config: PointConfig, action: DiagAction | None = None) -> tuple[MPoly, MPoly]:
    """Vanishing-locus polynomials (psi_1, psi_2) of a plane configuration
    under a diagonal action fixing its points.

    Runs the blowup point-sum formula symbolically in
    (m, a1, ..., a<number of points>) and clears the deg^{-2} and
    power-of-m prefactors, so F_l = psi_l / deg^2 with
    deg = m^2 - sum alpha_j^2, proved against chi~ and w~ before it is
    cached (CrossCheckError, on every call, on a disagreement).
    Homogeneous of degrees 4 and 3.  The action defaults to
    diag(2, -1, -1) for the aligned four-point family and is
    required for three general points (ValueError); an action that moves a
    point of the configuration is refused with ValueError.
    """
    if not isinstance(config, PointConfig):
        raise TypeError(f"config must be a PointConfig, got {config!r}")
    if action is None:
        action = _default_action(config)
    elif not isinstance(action, DiagAction):
        raise TypeError(f"action must be a DiagAction, got {action!r}")
    return _psi(config, action)[0]


def triple_point_check(psi1: MPoly) -> bool:
    """True iff the quartic has a point of multiplicity exactly three at (1,1,0,0,0).

    psi1 must be a polynomial in PSI_VARIABLES, the coordinates of that
    point.  The multiplicity is the lowest total degree of psi1(B + y),
    expanded once on generators shifted by B; the zero polynomial has no
    triple point.
    """
    if psi1.variables != PSI_VARIABLES:
        raise ValueError(f"psi1 must be a polynomial in {PSI_VARIABLES}, got one in {psi1.variables}")
    generators = MPoly.generators(PSI_VARIABLES)
    shifted = psi1.evaluate({name: y + b for name, y, b in
                             zip(PSI_VARIABLES, generators, _BASE_POINT)})
    return not shifted.is_zero and min(sum(exps) for exps, _ in shifted.terms()) == 3


def ample_check(config: PointConfig, m: int, alphas) -> bool:
    """Positivity of the twisted polarization against every negative curve.

    Three general points: m > 0, alpha_i > 0 and m + alpha_j > sum(alpha)
    (equivalently each line through two points stays positive).  For the
    aligned four-point family the negative classes are the exceptional
    curves, the strict transform of the line through the three aligned
    points, the lines joining p1 to each aligned point, and the check of
    positive self-intersection.
    """
    if not isinstance(config, PointConfig):
        raise TypeError(f"config must be a PointConfig, got {config!r}")
    alphas = tuple(alphas)
    _require_ints(m=m)
    _require_int_seq("alphas", alphas)
    if m <= 0 or any(a <= 0 for a in alphas):
        return False
    if config.kind == THREE_GENERAL:
        if len(alphas) != 3:
            raise ValueError("three multiplicities expected")
        total = sum(alphas)
        return all(m + a > total for a in alphas)
    if config.kind == FOUR_POINTS_THREE_ALIGNED:
        if len(alphas) != 4:
            raise ValueError("four multiplicities expected")
        a1, a2, a3, a4 = alphas
        if m - a2 - a3 - a4 <= 0:
            return False
        if any(m - a1 - aj <= 0 for aj in (a2, a3, a4)):
            return False
        return m * m - sum(a * a for a in alphas) > 0
    raise ValueError(f"unknown configuration kind: {config.kind}")


_THREE_POINT_ACTIONS = (DiagAction((1, -1, 0)), DiagAction((0, 1, -1)))


def three_point_loci(m: int, alphas) -> tuple[bool, bool]:
    """Vanishing of (F_1, F_2) for the three-coordinate-point blowup.

    Both generators of the torus are tested; a flag is True only when the
    corresponding invariant vanishes for every action.  Inputs outside the
    ample cone are rejected.  Ampleness gives m^2 > sum alpha^2, so
    deg^2 > 0 and F_l vanishes exactly when psi_l does: the flags come from
    the compiled integer psi_l of the two actions, proved equal to
    F_l * deg^2 as polynomials when they are built (see psi_reconstruct).
    """
    alphas = tuple(alphas)
    config = PointConfig.three_general()
    if not ample_check(config, m, alphas):
        raise ValueError(f"(m, alphas) = ({m}, {alphas}) is not ample")
    (psi1_a, psi2_a), (psi1_b, psi2_b) = (_psi(config, action)[1]
                                          for action in _THREE_POINT_ACTIONS)
    return (psi1_a(m, *alphas) == 0 and psi1_b(m, *alphas) == 0,
            psi2_a(m, *alphas) == 0 and psi2_b(m, *alphas) == 0)


# ---------------------------------------------------------------------------
# Search for asymptotically Chow unstable integer polarizations.
# ---------------------------------------------------------------------------


def _compile_int_poly(poly: MPoly):
    """Straight-line integer evaluator of an integral polynomial, taking its
    variables in order, generated from its term list."""
    products = []
    for exps, coeff in poly.terms():
        if coeff.denominator != 1:
            raise CrossCheckError(
                f"vanishing-locus polynomial is not integral: term {exps} in "
                f"{poly.variables} has coefficient {coeff}")
        factors = [f"({coeff.numerator})"]
        for name, e in zip(poly.variables, exps):
            factors.extend((name,) * e)
        products.append("*".join(factors))
    source = f"lambda {', '.join(poly.variables)}: {' + '.join(products) or '0'}"
    return eval(compile(source, "<psi>", "eval"), {})


def _line_directions(bound: int):
    """One direction per line through the origin of the box [-bound, bound]^5.

    Each line yields its first member in the box's lexicographic order,
    -T*p with p primitive, first nonzero entry positive, and
    T = bound // max|p|; lines come in the order of those members.  A
    vector v = -g*p (g = gcd(v)) is that member iff (g + 1) * max|p| > bound.
    """
    box = range(-bound, bound + 1)
    for lead in range(5):
        zeros = (0,) * lead
        for a in range(-bound, 0):
            for rest in itertools.product(box, repeat=4 - lead):
                v = zeros + (a,) + rest
                g = gcd(*v)
                top = max(map(abs, v))
                if top + top // g > bound:
                    yield v


def _verify_candidate(m: int, alphas: tuple[int, ...]) -> Fraction:
    """Recompute F_1 and F_2 through the blowup pipeline; returns F_2 * deg^2.

    Raises if the candidate fails recomputation, which by construction
    should never happen.
    """
    config = PointConfig.four_points_three_aligned()
    spec = _plane_blowup(config, _default_action(config), m, alphas)
    f1, f2 = blowup.futaki_blowup(spec)
    if f1 != 0 or f2 == 0:
        raise CrossCheckError(
            f"candidate (m={m}, alphas={alphas}) failed recomputation: F1={f1}, F2={f2}")
    deg_sq = (spec.volume_gap * m**2) ** 2      # deg = m^2 D on the plane
    return f2 * deg_sq


def search_unstable(grid_bound: int, scale_bound: int) -> list[Candidate]:
    """Hunt integer polarizations of the aligned four-point blowup that are
    cscK-compatible yet asymptotically Chow unstable (F_1 = 0, F_2 != 0).

    psi_1 has a triple point at B = (1,1,0,0,0), so along the line B + t*v
    it restricts to c3 t^3 + c4 t^4 with c4 = psi_1(v) and
    c3 = psi_1(B + v) - c4.  When c4 != 0 the line meets the quartic once
    more, at the integer point c4*B - c3*v, taken primitive with its first
    nonzero entry positive.  The sweep visits each line through B with a
    direction in [-grid_bound, grid_bound]^5 once, represented by its first
    member in the box's lexicographic order (-T*p for the primitive,
    positively signed p and T = grid_bound // max|p|); the other box
    members of a line come later and give the same point.  Directions v
    and v + c*B span the same projective line, so a point can recur; it is
    kept at its first occurrence.  Points with all five entries positive
    are scaled by 1..scale_bound and kept when the polarization is ample
    and psi_2 does not vanish.  Each returned candidate is re-verified
    through the full invariant pipeline.  Output order is deterministic:
    lines in the order of their representatives, scales increasing, the
    same as a scan of every direction of the box in lexicographic order.

    Bounds must be ints >= 1 (TypeError, ValueError otherwise), grid_bound
    at most SEARCH_MAX_GRID_BOUND and scale_bound at most
    SEARCH_MAX_SCALE_BOUND (ResourceLimitError).
    """
    _require_ints(grid_bound=grid_bound, scale_bound=scale_bound)
    if grid_bound < 1 or scale_bound < 1:
        raise ValueError("bounds must be >= 1")
    if grid_bound > SEARCH_MAX_GRID_BOUND:
        raise ResourceLimitError(
            f"search guard exceeded: grid_bound = {grid_bound} > {SEARCH_MAX_GRID_BOUND}")
    if scale_bound > SEARCH_MAX_SCALE_BOUND:
        raise ResourceLimitError(
            f"search guard exceeded: scale_bound = {scale_bound} > {SEARCH_MAX_SCALE_BOUND}")
    config = PointConfig.four_points_three_aligned()
    psi1, psi2 = _psi(config, _default_action(config))[1]
    candidates: list[Candidate] = []
    seen: set[tuple[int, ...]] = set()
    for v0, v1, v2, v3, v4 in _line_directions(grid_bound):
        c4 = psi1(v0, v1, v2, v3, v4)
        if c4 == 0:
            continue
        c3 = psi1(1 + v0, 1 + v1, v2, v3, v4) - c4
        point = (c4 - c3 * v0, c4 - c3 * v1, -c3 * v2, -c3 * v3, -c3 * v4)
        # Keep only points whose entries share one strict sign.
        if min(point) < 1 and max(point) > -1:
            continue
        g = gcd(*point)
        if point[0] < 0:
            g = -g
        point = tuple(c // g for c in point)
        if point in seen:
            continue
        seen.add(point)
        for scale in range(1, scale_bound + 1):
            m = scale * point[0]
            alphas = tuple(scale * c for c in point[1:])
            if not ample_check(config, m, alphas):
                continue
            psi2_value = Fraction(psi2(m, *alphas))
            if psi2_value == 0:
                continue
            f2_scaled = _verify_candidate(m, alphas)
            if f2_scaled != psi2_value:
                raise CrossCheckError(
                    f"psi_2 disagrees with F_2 * deg^2 recomputed through the blowup "
                    f"pipeline at m = {m}, alphas = {alphas}: psi_2 = {psi2_value}, "
                    f"F_2 * deg^2 = {f2_scaled}")
            candidates.append(Candidate(
                m=m, alphas=alphas, psi1_value=Fraction(0),
                psi2_value=psi2_value, ample=True, verified=True))
    return candidates
