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

psi_reconstruct(config, action) runs the blowup geometry's point-sum
columns, the transcription that clears their denominator on integers, on
polynomial generators (m, a1, ..., a<number of points>) for any
configuration and any diagonal action fixing its points, giving psi_l with
F_l = psi_l / deg^2, each proved where it is built to equal F_l * deg^2
from chi~ and w~ on the same generators, as polynomials.  One bounded
cache holds each (config, action)'s polynomials with their compiled
integer evaluators, and another the quartic and cubic parts of
psi_1(B + y) at the triple point B, restricted to a1 = 0 and compiled
into one evaluator.  Every compiled evaluator is in nested Horner form.  The
search walks the orbits of the classes of lines through B under permuting
the aligned points' multiplicities, a symmetry proved where the
evaluators are built, at their descending tails, and evaluates those of
the four-point family once per orbit.  It verifies each orbit it keeps
once, at its descending tail, through the point's cached blowup geometry
(blowup._Geometry.checked_futaki_parts: F_1 and F_2 from chi~ and w~ and
from the point sums, on integers, compared), with no BlowupSpec built,
and expands only those orbits into their classes, merged into class
order, each class's point compared on integers with its orbit's verified
one; three_point_loci evaluates those of the two three-point generators.

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
from math import comb, gcd, lcm, prod

from . import blowup, chowcore
from .errors import CrossCheckError, ResourceLimitError
from .exactalg import MPoly, _require_int_seq, _require_ints
from .blowup import projective_space_base

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

# Largest accepted grid_bound and scale_bound.  At b = 8 the search
# walks the 1 060 orbits of the 4 561 line classes, those of the box's
# 678 721 lines through the origin whose point can be ample, verifies
# each of the 332 orbits it keeps once and expands them into their 1 385
# classes.  Scaled copies follow by homogeneity, so the scale bound
# limits output size: search_unstable(8, 1) gives 1 385 candidates in
# about 0.08 s and search_unstable(8, 8) 11 080 in about 0.08 s too
# (medians of seven fresh processes, spreads 0.049-0.090 s and
# 0.071-0.123 s, on one core of a 2-vCPU Intel Xeon host under
# CPython 3.11).
SEARCH_MAX_GRID_BOUND = 8
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
    (the set of indices where its coordinates are nonzero).  At least one
    block is required.  The kind must be a str (TypeError); a named kind
    must carry its classmethod's blocks, and any other str is accepted."""

    kind: str
    blocks: tuple[frozenset[int], ...]

    def __post_init__(self):
        if not isinstance(self.kind, str):
            raise TypeError(f"kind must be a str, got {self.kind!r}")
        object.__setattr__(self, "blocks", tuple(_coordinate_block(b) for b in self.blocks))
        if not self.blocks:
            raise ValueError("a point configuration needs at least one blown point (block)")
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
    the invariant pipeline confirmed both values: F_1 and F_2 derived from
    chi~ and w~ and from the point sums of the point's cached blowup
    geometry, on integers, and found equal, with F_1 = 0, F_2 != 0 and
    F_2 * deg^2 = psi_2 compared on integers.  It is run once, on the
    primitive point of each orbit under permuting (alpha_2, alpha_3,
    alpha_4), at its descending tail.  Every other point of the orbit is a
    permutation of it, compared on integers, and has its F_l, by symmetries
    proved once per process where the search's (c4, c3) evaluator is built
    (_line_coefficients); a scaled copy s*P is verified through P, since
    F_1 = 0 and ampleness are invariant under scaling and psi_2, proved
    homogeneous of degree 3, gives psi_2(s*P) = s^3 * psi_2(P).  The
    search builds each candidate by setting its instance dict, the fields
    in field order, so that it equals, hashes, prints and pickles as
    Candidate(**fields) does."""

    m: int
    alphas: tuple[int, int, int, int]
    psi1_value: Fraction
    psi2_value: Fraction
    ample: bool
    verified: bool


def _coordinate_block(block) -> frozenset[int]:
    """``block`` as a frozenset; TypeError unless every index is an int (bools
    refused), ValueError unless it is a nonempty subset of {0, 1, 2}."""
    idx = frozenset(block)
    _require_int_seq("block", tuple(idx))
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


# Entries are a few small polynomials and two compiled functions; the
# library itself reconstructs three (config, action) pairs.
_PSI_CACHE_SIZE = 16


@lru_cache(maxsize=_PSI_CACHE_SIZE)
def _psi(config: PointConfig, action: DiagAction):
    """(psi_1, psi_2) of (config, action), each proved homogeneous of degree
    2n + 1 - l and equal to F_l * deg^2 as a polynomial, and their compiled
    integer evaluators."""
    integer_action = _integer_action(config, action)     # integer phi, so q = 1
    base = _PLANE
    n = base.n
    variables = ("m",) + tuple(f"a{j}" for j in range(1, len(config.blocks) + 1))
    m, *alphas = MPoly.generators(variables)
    # The point-sum columns give (n+1) F_l deg^2 with deg = m^n D, a
    # polynomial by the weighted homogeneity of their transcription.  So
    # does the pipeline on the integer transcriptions A = n! chi~ and
    # B = (n+1)! w~: deg = A_0, so A_0 B_l - B_0 A_l = (n+1) F_l deg^2.
    sums = blowup._integer_dot(blowup._f_g_levels(base, m, alphas)[2], integer_action)
    pipeline = chowcore._futaki_numerators(
        blowup._scaled_chi_tilde(n, base.a, m, alphas),
        blowup._integer_dot(blowup._w_tilde_columns(n, m, alphas), integer_action))
    unit = Fraction(1, n + 1)
    polys = []
    for ell, (total, expected) in enumerate(zip(sums, pipeline), start=1):
        target = 2 * n + 1 - ell
        # The pipeline's F_l * deg^2 is proved homogeneous of degree target,
        # term by term, so that the search may take
        # psi_l(s*P) = s^target * psi_l(P) for every scale s.
        for exps, coeff in expected.terms():
            if sum(exps) != target:
                raise CrossCheckError(
                    f"psi_{ell} of {config.kind} under diag{action.w} from chi~ and w~ is "
                    f"not homogeneous of degree {target}: term {exps} with coefficient "
                    f"{unit * coeff}")
        psi = unit * total
        if total != expected:
            raise CrossCheckError(
                f"psi_{ell} of {config.kind} under diag{action.w} disagrees with "
                f"F_{ell} * deg^2 from chi~ and w~: psi_{ell} = {psi.pretty()}, "
                f"pipeline {(unit * expected).pretty()}")
        polys.append(psi)
    return tuple(polys), tuple(_compile_int_poly(p) for p in polys)


def psi_reconstruct(config: PointConfig, action: DiagAction | None = None) -> tuple[MPoly, MPoly]:
    """Vanishing-locus polynomials (psi_1, psi_2) of a plane configuration
    under a diagonal action fixing its points.

    Runs the blowup geometry's point-sum columns (blowup._f_g_levels) on
    the generators (m, a1, ..., a<number of points>): their weighted
    homogeneous transcription clears the deg^{-2} and power-of-m
    prefactors, so F_l = psi_l / deg^2 with deg = m^2 - sum alpha_j^2,
    a polynomial by construction, proved against chi~ and w~ before it is
    cached (CrossCheckError, on every call, on a disagreement).
    Homogeneous of degrees 4 and 3, which is proved before caching too.
    The action defaults to diag(2, -1, -1) for the aligned four-point
    family and is required for three general points (ValueError); an
    action that moves a point of the configuration is refused with
    ValueError.
    """
    if not isinstance(config, PointConfig):
        raise TypeError(f"config must be a PointConfig, got {config!r}")
    if action is None:
        if config.kind != FOUR_POINTS_THREE_ALIGNED:
            raise ValueError(f"an action is required for the {config.kind} configuration")
        action = _FOUR_POINT_ACTION
    elif not isinstance(action, DiagAction):
        raise TypeError(f"action must be a DiagAction, got {action!r}")
    return _psi(config, action)[0]


def triple_point_check(psi1: MPoly) -> bool:
    """True iff the quartic has a point of multiplicity exactly three at (1,1,0,0,0).

    psi1 must be a polynomial in PSI_VARIABLES, the coordinates of that
    point.  The multiplicity is the lowest total degree of psi1(B + y),
    read off its expansion by degree (_base_point_parts); the zero
    polynomial has no triple point.  TypeError unless psi1 is an MPoly.
    """
    if not isinstance(psi1, MPoly):
        raise TypeError(f"psi1 must be an MPoly, got {psi1!r}")
    parts = _base_point_parts(psi1)
    return bool(parts) and min(parts) == 3


def _base_point_parts(psi: MPoly) -> dict[int, MPoly]:
    """The nonzero homogeneous parts of psi(B + y) in y, keyed by degree.

    Expanded on psi's term list as integer numerators over one
    denominator: each power (b + y_i)^e of a shifted coordinate is
    sum_k C(e, k) b^(e-k) y_i^k, and only m and a1 are shifted.  ValueError
    unless psi is a polynomial in PSI_VARIABLES, the coordinates of B.
    """
    if psi.variables != PSI_VARIABLES:
        raise ValueError(f"psi must be a polynomial in {PSI_VARIABLES}, got one in {psi.variables}")
    terms = list(psi.terms())
    den = lcm(*(coeff.denominator for _, coeff in terms))
    parts: dict[int, dict[tuple[int, ...], int]] = {}
    for exps, coeff in terms:
        numerator = coeff.numerator * (den // coeff.denominator)
        for shifted in itertools.product(*(range(e + 1) if b else (e,)
                                           for e, b in zip(exps, _BASE_POINT))):
            weight = prod(comb(e, k) * b ** (e - k) for e, k, b in zip(exps, shifted, _BASE_POINT))
            part = parts.setdefault(sum(shifted), {})
            part[shifted] = part.get(shifted, 0) + numerator * weight
    polys = {degree: MPoly(psi.variables, {exps: Fraction(c, den) for exps, c in part.items()})
             for degree, part in parts.items()}
    return {degree: part for degree, part in polys.items() if not part.is_zero}


def ample_check(config: PointConfig, m: int, alphas) -> bool:
    """Positivity of the twisted polarization against every negative curve.

    Three general points: m > 0, alpha_i > 0 and m + alpha_j > sum(alpha)
    (equivalently each line through two points stays positive).  For the
    aligned four-point family the negative classes are the exceptional
    curves, the strict transform of the line through the three aligned
    points, the lines joining p1 to each aligned point, and the check of
    positive self-intersection.  An unknown kind, or a number of
    multiplicities other than the kind's, raises ValueError before any
    sign is tested.
    """
    if not isinstance(config, PointConfig):
        raise TypeError(f"config must be a PointConfig, got {config!r}")
    alphas = tuple(alphas)
    _require_ints(m=m)
    _require_int_seq("alphas", alphas)
    count = {THREE_GENERAL: "three", FOUR_POINTS_THREE_ALIGNED: "four"}.get(config.kind)
    if count is None:
        raise ValueError(f"unknown configuration kind: {config.kind}")
    if len(alphas) != len(config.blocks):     # a named kind has its classmethod's blocks
        raise ValueError(f"{count} multiplicities expected")
    return _is_ample(config.kind, m, alphas)


def _is_ample(kind: str, m: int, alphas: tuple[int, ...]) -> bool:
    """ample_check on checked ints, of a known kind and as many
    multiplicities as it has points.  Every inequality is homogeneous, so
    the answer at (s*m, s*alphas) is the one at (m, alphas) for every s >= 1.

    The four-point family, which the search asks about for every point it
    keeps, is tested by plain comparisons."""
    if kind == FOUR_POINTS_THREE_ALIGNED:
        a1, a2, a3, a4 = alphas
        return (m > 0 and a1 > 0 and a2 > 0 and a3 > 0 and a4 > 0
                and m - a2 - a3 - a4 > 0
                and m - a1 - a2 > 0 and m - a1 - a3 > 0 and m - a1 - a4 > 0
                and m * m - a1 * a1 - a2 * a2 - a3 * a3 - a4 * a4 > 0)
    total = sum(alphas)
    return m > 0 and all(a > 0 and m + a > total for a in alphas)


_THREE_POINTS = PointConfig.three_general()
_THREE_POINT_ACTIONS = (DiagAction((1, -1, 0)), DiagAction((0, 1, -1)))

# The base of every blowup here.
_PLANE = projective_space_base(2)

# The search's configuration and action, and the action as (P, q, lams).
_FOUR_POINTS = PointConfig.four_points_three_aligned()
_FOUR_POINT_ACTION = DiagAction((2, -1, -1))


def _integer_action(config: PointConfig, action: DiagAction):
    """The fixed-point data of (config, action) as one integer action
    (P, q, lams), as blowup._Geometry._integer_action gives it."""
    return blowup._Geometry._integer_action(
        *zip(*(fixed_point_data(action, block) for block in config.blocks)))


_FOUR_POINT_INTEGER_ACTION = _integer_action(_FOUR_POINTS, _FOUR_POINT_ACTION)


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
    if not ample_check(_THREE_POINTS, m, alphas):
        raise ValueError(f"(m, alphas) = ({m}, {alphas}) is not ample")
    (psi1_a, psi2_a), (psi1_b, psi2_b) = (_psi(_THREE_POINTS, action)[1]
                                          for action in _THREE_POINT_ACTIONS)
    return (psi1_a(m, *alphas) == 0 and psi1_b(m, *alphas) == 0,
            psi2_a(m, *alphas) == 0 and psi2_b(m, *alphas) == 0)


# ---------------------------------------------------------------------------
# Search for asymptotically Chow unstable integer polarizations.
# ---------------------------------------------------------------------------


def _int_poly_source(poly: MPoly) -> str:
    """Integer expression of an integral polynomial in its variables, in
    nested Horner form, generated from its term list."""
    terms = {}
    for exps, coeff in poly.terms():
        if coeff.denominator != 1:
            raise CrossCheckError(
                f"vanishing-locus polynomial is not integral: term {exps} in "
                f"{poly.variables} has coefficient {coeff}")
        terms[exps] = coeff.numerator
    return _horner_source(terms, poly.variables)


def _horner_source(terms: dict[tuple[int, ...], int], variables: tuple[str, ...]) -> str:
    """sum c * x^e over ``terms`` as p_0 + x*(p_1 + x*(...)) in the first
    variable x, each p_k written the same way in the remaining variables."""
    if not terms:
        return "0"
    if not variables:
        return f"({terms[()]})"
    name, rest = variables[0], variables[1:]
    by_power: dict[int, dict[tuple[int, ...], int]] = {}
    for exps, c in terms.items():
        by_power.setdefault(exps[0], {})[exps[1:]] = c
    powers = sorted(by_power, reverse=True)
    expression = _horner_source(by_power[powers[0]], rest)
    for higher, power in zip(powers, powers[1:]):
        inner = _horner_source(by_power[power], rest)
        expression = f"{inner} + {_times(name, higher - power, expression)}"
    return _times(name, powers[-1], expression) if powers[-1] else expression


def _times(name: str, power: int, expression: str) -> str:
    """name^power * (expression), a unit factor left out."""
    step = "*".join((name,) * power)
    if expression in ("(1)", "(-1)"):
        return step if expression == "(1)" else f"-{step}"
    return f"{step}*({expression})"


def _compile(variables: tuple[str, ...], expression: str):
    return eval(compile(f"lambda {', '.join(variables)}: {expression}", "<psi>", "eval"), {})


def _compile_int_poly(poly: MPoly):
    """Integer evaluator of an integral polynomial, taking its variables in order."""
    return _compile(poly.variables, _int_poly_source(poly))


@lru_cache(maxsize=_PSI_CACHE_SIZE)
def _line_coefficients(config: PointConfig, action: DiagAction):
    """Compiled integer evaluator of (c4, c3) = (psi_1(u), cubic part of
    psi_1(B + u)) at u = (u0, 0, u2, u3, u4), taking (u0, u2, u3, u4): the
    quartic and cubic coefficients of psi_1 on the line B + t*u of
    (config, action).

    Both parts come from one expansion of psi_1(B + y); CrossCheckError
    unless its parts of degree 0-2 vanish and its quartic part is psi_1,
    so that psi_1(B + t*v) = c3 t^3 + c4 t^4 on every line.  They are
    then restricted to a1 = 0, which every line through B meets: with
    v = g*u + c*B, psi_1(B + t*v) = g^3 c3(u) t^3 + g^3 (g c4(u) + c c3(u)) t^4.
    As the search's first call, it also proves, once per (config, action),
    what lets the search work once per orbit of the tail (u2, u3, u4)
    under permutation (CrossCheckError otherwise): both restrictions and
    psi_2 are invariant under permuting (a2, a3, a4), and the integer
    action of (config, action) (_integer_action) gives the three aligned
    points one fixed-point datum.
    """
    psi1, psi2 = _psi(config, action)[0]
    parts = _base_point_parts(psi1)
    of = f"of {config.kind} under diag{action.w}"
    where = f"psi_1 {of}"
    for degree in range(3):
        if degree in parts:
            raise CrossCheckError(
                f"{where} has no triple point at {_BASE_POINT}: the degree-{degree} part "
                f"of psi_1(B + y) is {parts[degree].pretty()}")
    zero = MPoly.zeros(psi1.variables)
    quartic, cubic = parts.get(4, zero), parts.get(3, zero)
    if quartic != psi1:
        raise CrossCheckError(
            f"{where} is not a quartic form: the degree-4 part of psi_1(B + y) is "
            f"{quartic.pretty()}, psi_1 = {psi1.pretty()}")
    drop = psi1.variables.index("a1")
    variables = psi1.variables[:drop] + psi1.variables[drop + 1:]

    sources = []
    for name, part in (("c4", quartic), ("c3", cubic)):
        restricted = MPoly(variables, {exps[:drop] + exps[drop + 1:]: coeff
                                       for exps, coeff in part.terms() if not exps[drop]})
        _require_tail_symmetric(f"{name} of {where}", restricted)
        sources.append(_int_poly_source(restricted))
    _require_tail_symmetric(f"psi_2 {of}", psi2)
    integer_action = _integer_action(config, action)
    phi_nums, _, lams = integer_action
    aligned = set(zip(phi_nums[1:], lams[1:]))
    if len(aligned) != 1:
        raise CrossCheckError(
            f"the integer action (P, q, lams) = {integer_action} {of} gives the aligned "
            f"points {len(aligned)} fixed-point data, not one")
    return _compile(variables, f"({sources[0]}, {sources[1]})")


# The multiplicities of the three aligned points, which share one fixed-point datum.
_TAIL = ("a2", "a3", "a4")


def _require_tail_symmetric(name: str, poly: MPoly) -> None:
    """CrossCheckError, naming the polynomial ``name`` and the first
    permutation that moves it, unless poly is invariant under every
    permutation of (a2, a3, a4)."""
    at = [poly.variables.index(v) for v in _TAIL]
    terms = dict(poly.terms())
    for order in itertools.permutations(at):
        moved = {}
        for exps, coeff in terms.items():
            image = list(exps)
            for source, target in zip(at, order):
                image[target] = exps[source]
            moved[tuple(image)] = coeff
        if moved != terms:
            names = ", ".join(poly.variables[i] for i in order)
            raise CrossCheckError(
                f"{name} is not invariant under permuting (a2, a3, a4): under "
                f"(a2, a3, a4) -> ({names}) it is {MPoly(poly.variables, moved).pretty()}, "
                f"not {poly.pretty()}")


def _orbits(bound: int):
    """The descending tail of each orbit of the search's classes under
    permuting (u2, u3, u4): each primitive u = (u0, u2, u3, u4) with
    bound >= u2 >= u3 >= u4 >= 1 and u2 < u0 <= 2 * bound, u0 ascending,
    then the tail in descending lexicographic order, which is the order in
    which class order meets them."""
    for u0 in range(2, 2 * bound + 1):
        for u2 in range(min(u0 - 1, bound), 0, -1):
            for u3 in range(u2, 0, -1):
                g3 = gcd(u0, u2, u3)
                for u4 in range(u3, 0, -1):
                    if g3 == 1 or gcd(g3, u4) == 1:
                        yield u0, u2, u3, u4


def _class_order(orbits):
    """The classes of ``orbits``, pairs (u, datum) with u an orbit's
    descending tail, each class paired with its orbit's datum, in class
    order: u0 ascending, then the tail in descending lexicographic order.
    An orbit's classes are the distinct permutations of its tail."""
    classes = [((u0, *order), datum) for (u0, *tail), datum in orbits
               for order in set(itertools.permutations(tail))]
    # Reversing the order of (-u0, tail) leaves u0 ascending, the tail descending.
    classes.sort(key=lambda item: (-item[0][0], item[0][1:]), reverse=True)
    return classes


def _class_point(u, line_coefficients, psi2):
    """(m, a1, f, psi_2(P)) of the primitive point
    P = (m, a1, f*u2, f*u3, f*u4) of class u = (u0, u2, u3, u4), or None
    when the search drops P: its entries do not share one strict sign, it
    is not ample, or psi_2(P) = 0.

    The line's point, up to g^4 > 0, is (c4 - c3*u0, c4, -c3*u2, -c3*u3,
    -c3*u4); its gcd divides c3, since u is primitive, so f = -c3 / g for
    the signed gcd g that makes m > 0.  With (c4, c3) and psi_2 proved
    invariant under permuting (a2, a3, a4), and ampleness a test symmetric
    in them, every class of u's orbit under permuting (u2, u3, u4) gets the
    same (m, a1, f, psi_2(P)), or None.  The search calls it once per
    orbit, at the descending tail, in the order of _orbits, verifies the
    point of each orbit it keeps there, and expands only those orbits
    (_class_order)."""
    u0, u2, u3, u4 = u
    c4, c3 = line_coefficients(u0, u2, u3, u4)
    # c4(v)*B - c3(v)*v, divided by g^4 > 0.
    point = (c4 - c3 * u0, c4, -c3 * u2, -c3 * u3, -c3 * u4)
    # Keep only points whose entries share one strict sign.
    if min(point) < 1 and max(point) > -1:
        return None
    g = gcd(*point)
    if point[0] < 0:
        g = -g
    m, *alphas = (c // g for c in point)
    if not _is_ample(FOUR_POINTS_THREE_ALIGNED, m, alphas):
        return None
    psi2_value = psi2(m, *alphas)
    if psi2_value == 0:
        return None
    return m, alphas[0], -c3 // g, psi2_value


def _verify_candidate(m: int, alphas: tuple[int, ...], action) -> tuple[int, int]:
    """Recompute F_1 and F_2 through the blowup pipeline; returns F_2 * deg^2
    as an integer numerator over one denominator.  The search calls it once
    per kept orbit, on the orbit's point at its descending tail.

    ``action`` is the blown points' fixed-point data as the integer action
    (P, q, lams) of blowup._Geometry._integer_action.  The cached geometry
    of (m, alphas) derives the F_l twice on integers, through chi~ and w~
    and through the point sums, and compares them (checked_futaki_parts):
    no BlowupSpec, BlownPoint, Poly, WeightData or Fraction is built.
    Raises if the candidate fails recomputation, F_1 != 0 or F_2 = 0,
    which by construction should never happen; only then are the values
    written as Fractions.
    """
    geometry = blowup._geometry_for(_PLANE, m, alphas)
    (f1, f2), den = geometry.checked_futaki_parts(action)
    if f1 != 0 or f2 == 0:
        raise CrossCheckError(
            f"candidate (m={m}, alphas={alphas}) failed recomputation: "
            f"F1={Fraction(f1, den)}, F2={Fraction(f2, den)}")
    gap = geometry.volume_gap
    deg = gap.numerator * m**2 // gap.denominator   # deg = m^2 D on the plane, an integer
    return f2 * deg * deg, den


# psi_1 of every candidate, one shared immutable Fraction.
_ZERO = Fraction(0)


def _verified(m: int, alphas: tuple[int, int, int, int], psi2_value: Fraction) -> Candidate:
    """Candidate(m, alphas, _ZERO, psi2_value, True, True) of a verified
    point, its instance dict set directly, the fields in field order, as
    the frozen dataclass's __init__ leaves it, so that equality, hash, repr
    and pickle are the dataclass's own and assigning a field still raises."""
    candidate = object.__new__(Candidate)
    candidate.__dict__.update(m=m, alphas=alphas, psi1_value=_ZERO, psi2_value=psi2_value,
                              ample=True, verified=True)
    return candidate


def search_unstable(grid_bound: int, scale_bound: int) -> list[Candidate]:
    """Hunt integer polarizations of the aligned four-point blowup that are
    cscK-compatible yet asymptotically Chow unstable (F_1 = 0, F_2 != 0).

    psi_1 has a triple point at B = (1,1,0,0,0), so on the line B + t*v it
    is c3 t^3 + c4 t^4, with c4 = psi_1(v) and c3 the cubic part of
    psi_1(B + y) at y = v.  For c4 != 0 the line meets the quartic again at
    c4*B - c3*v, taken primitive with its first nonzero entry positive and
    kept only if its five entries share one strict sign.  The line is named
    by its class u, (v0 - v1, v2, v3, v4) made primitive with u2 > 0; for
    v = g*(u0, 0, u2, u3, u4) + v1*B the point is, up to g^4 > 0,
    (c4 - c3*u0, c4, -c3*u2, -c3*u3, -c3*u4) at u (_line_coefficients).
    A kept point has -c3 > 0 and m - a1 - a_j = -c3 (u0 - u_j), so it can
    be ample only if u2, u3, u4 > 0 and u0 > max(u2, u3, u4).  For the
    directions of the box [-b, b]^5 (b = grid_bound), where |g*u_j| <= b
    and |g*u0| = |v0 - v1| <= 2b, those are the primitive u with
    1 <= u2, u3, u4 <= b and max(u2, u3, u4) < u0 <= 2b, and candidates
    come in class order: u0 ascending, then u2, u3 and u4 descending (the
    tail in descending lexicographic order), each point once, since a
    point other than B fixes its line through B.  For every accepted bound
    this is the order of a scan of every direction of the box: a class's
    least direction in lexicographic order is (-b, u0 - b, -u2, -u3, -u4)
    (v0 = g*u0 + v1 = -b needs g < 0, and v1 = -b - g*u0 is then least at
    g = -1), and no class
    up to SEARCH_MAX_GRID_BOUND has c4 = 0 there, c4(u) = (u0 - b) c3(u),
    which the tests check class by class.  The ampleness bound is
    necessary, not sufficient: every kept point is still tested.

    The search walks the orbits of the tail (u2, u3, u4) under
    permutation directly, at their descending tails u2 >= u3 >= u4
    (_orbits), and does the class work once per orbit: (c4, c3), the sign
    test, the gcd, ampleness and psi_2 (_class_point).  Only the orbits it
    keeps are expanded into their classes, the distinct permutations of
    the tail, each of which builds its point from its own u; merged, they
    come in class order (_class_order).  This rests on symmetries proved
    once per process, where the cached (c4, c3) evaluator is built
    (_line_coefficients): the (c4, c3) parts and psi_2 are invariant under
    permuting (a2, a3, a4), and the integer action gives the three aligned
    points one fixed-point datum; ampleness is a test symmetric in (a2,
    a3, a4).

    Each kept orbit's primitive point P, ample with psi_2(P) != 0, is
    verified once, at the orbit's descending tail, through the invariant
    pipeline on the blown points' fixed-point data as one integer action
    (_verify_candidate): F_1 = 0, F_2 != 0 and F_2 * deg^2 = psi_2(P),
    compared on integers by cross-multiplication.  By the same symmetries,
    with chi~ depending on the multiplicities only through their power
    sums and w~ and the point sums being sums over the points, every class
    of the orbit has P's F_l; so each class's point, built from its own u,
    is compared on integers with P instead, (m, a1) and the tail sorted
    descending (CrossCheckError naming the class, its point and P, before
    any candidate of the class is built).  Each class's point gives its
    multiples by 1..scale_bound, scales increasing, with
    psi_2(s*P) = s^3 * psi_2(P): ampleness and F_1 = 0 are invariant under
    scaling, and psi_2 is proved homogeneous of degree 3 where it is built.

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
    line_coefficients = _line_coefficients(_FOUR_POINTS, _FOUR_POINT_ACTION)
    psi2 = _psi(_FOUR_POINTS, _FOUR_POINT_ACTION)[1][1]
    kept = []
    for u in _orbits(grid_bound):
        point = _class_point(u, line_coefficients, psi2)
        if point is None:
            continue
        m, a1, f, psi2_value = point
        alphas = (a1, f * u[1], f * u[2], f * u[3])
        f2_scaled, den = _verify_candidate(m, alphas, _FOUR_POINT_INTEGER_ACTION)
        if f2_scaled != psi2_value * den:
            raise CrossCheckError(
                f"psi_2 disagrees with F_2 * deg^2 recomputed through the blowup "
                f"pipeline at m = {m}, alphas = {alphas}: psi_2 = {psi2_value}, "
                f"F_2 * deg^2 = {Fraction(f2_scaled, den)}")
        kept.append((u, (point, (m, *alphas))))
    candidates: list[Candidate] = []
    for u, ((m, a1, f, psi2_value), verified) in _class_order(kept):
        _, u2, u3, u4 = u
        a2, a3, a4 = f * u2, f * u3, f * u4
        if (m, a1, *sorted((a2, a3, a4), reverse=True)) != verified:
            raise CrossCheckError(
                f"class u = {u} gives the point m = {m}, alphas = {(a1, a2, a3, a4)}, but "
                f"its orbit's verified point, at the descending tail, is m = {verified[0]}, "
                f"alphas = {verified[1:]}")
        for s in range(1, scale_bound + 1):
            candidates.append(_verified(s * m, (s * a1, s * a2, s * a3, s * a4),
                                        Fraction(s**3 * psi2_value)))
    return candidates
