"""Test-only reference for chowstab.p2lab.search_unstable.

``search(bound, scale)`` is the integer line sweep as it stood before the
direction walk skipped lines: ``line_directions(bound)`` yields the first
box member of every line through the origin, and each line evaluates the
compiled quartic twice, c4 = psi_1(v) and c3 = psi_1(B + v) - c4, before
the sign test drops the points it cannot keep.  It leaves out the
pipeline verification, which never changes the output.  test_p2lab
requires the library's candidates to equal its own, order included.

``walk_directions(bound)`` is the walk of lines as it stood before the
search enumerated its line classes directly: the first box member of
every line whose point can be ample.  test_p2lab requires the search's
classes to come in the order in which this walk first reaches them.

``classes(bound)`` is the walk of the search's line classes as it stood
before the search walked only the descending tails of their orbits: every
class, in class order.  test_p2lab requires the search's orbit walk,
expanded and merged, to reproduce it, and reads the classes from it.

``recheck_every_scale(candidates)`` is the verification as it stood before
the search verified each primitive point once: every candidate, at its own
scale, recomputed through futaki_blowup.

``psi_by_clearing(config, action)`` is psi_reconstruct's construction as
it stood before it ran the geometry's integer transcription on generators:
the point sums on ratio generators x_j = alpha_j/m, then the substitution
x_j -> alpha_j/m and the factor m^{2n+1-l} that clear D^2 m^{l-1} and
deg^{-2}.  test_p2lab requires psi_reconstruct to equal it.
"""
from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import gcd

import blowup_reference
from chowstab import blowup, p2lab
from chowstab.exactalg import MPoly
from chowstab.p2lab import Candidate, DiagAction, PointConfig, ample_check, fixed_point_data


def line_directions(bound):
    """One direction per line through the origin of [-bound, bound]^5: its
    first member in lexicographic order, -T*p for the primitive p with first
    nonzero entry positive and T = bound // max|p|."""
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


@functools.lru_cache(maxsize=None)
def kept_points(bound):
    """The primitive points of every line, in line order, first occurrence
    kept, whose entries share one strict sign."""
    psi1 = p2lab._compile_int_poly(p2lab.psi_reconstruct(PointConfig.four_points_three_aligned())[0])
    points, seen = [], set()
    for v0, v1, v2, v3, v4 in line_directions(bound):
        c4 = psi1(v0, v1, v2, v3, v4)
        if c4 == 0:
            continue
        c3 = psi1(1 + v0, 1 + v1, v2, v3, v4) - c4
        point = (c4 - c3 * v0, c4 - c3 * v1, -c3 * v2, -c3 * v3, -c3 * v4)
        if min(point) < 1 and max(point) > -1:
            continue
        g = gcd(*point)
        if point[0] < 0:
            g = -g
        point = tuple(c // g for c in point)
        if point not in seen:
            seen.add(point)
            points.append(point)
    return tuple(points)


def search(bound, scale):
    config = PointConfig.four_points_three_aligned()
    psi2 = p2lab._compile_int_poly(p2lab.psi_reconstruct(config)[1])
    out = []
    for point in kept_points(bound):
        for k in range(1, scale + 1):
            m, alphas = k * point[0], tuple(k * c for c in point[1:])
            if not ample_check(config, m, alphas):
                continue
            psi2_value = Fraction(psi2(m, *alphas))
            if psi2_value:
                out.append(Candidate(m=m, alphas=alphas, psi1_value=Fraction(0),
                                     psi2_value=psi2_value, ample=True, verified=True))
    return out


def walk_directions(bound):
    """One direction per line through the origin of the box [-bound, bound]^5
    that can yield an ample point: its last three entries are nonzero and
    share one sign s, and s*(v0 - v1) > max(|v2|, |v3|, |v4|).

    Each such line yields its first member in the box's lexicographic
    order, -T*p with p primitive, first nonzero entry positive, and
    T = bound // max|p|; lines come in the order of those members.  A
    vector v = -g*p (g = gcd(v)) is that member iff (g + 1) * max|p| > bound.
    A first member has its first nonzero entry negative, so its head
    (v0, v1) is (negative, any) or (0, negative); a head (0, 0) leaves
    v0 - v1 = 0 and no line.  The tails of a head with d = v0 - v1 are
    those of the sign of d whose entries are below |d| in size.
    """
    below, box = range(-bound, 0), range(-bound, bound + 1)
    signed = {-1: [(t, gcd(*t), -min(t)) for t in itertools.product(below, repeat=3)],
              1: [(t, gcd(*t), max(t)) for t in itertools.product(range(1, bound + 1), repeat=3)]}
    # shorter[s][k]: the tails of sign s, in product order, whose top is below k.
    shorter = {s: [[tail for tail in tails if tail[2] < k] for k in range(bound + 2)]
               for s, tails in signed.items()}
    heads = [(a, b) for a in below for b in box if a != b] + [(0, b) for b in below]
    for head in heads:
        d = head[0] - head[1]
        head_gcd, head_top = gcd(*head), max(map(abs, head))
        for tail, tail_gcd, tail_top in shorter[1 if d > 0 else -1][min(abs(d), bound + 1)]:
            g = gcd(head_gcd, tail_gcd)
            top = max(head_top, tail_top)
            if top + top // g > bound:
                yield head + tail


def classes(bound):
    """Each primitive u = (u0, u2, u3, u4) with 1 <= u2, u3, u4 <= bound and
    max(u2, u3, u4) < u0 <= 2 * bound, in class order: u0 ascending, then
    u2, u3 and u4 descending."""
    for u0 in range(2, 2 * bound + 1):
        tails = range(min(u0 - 1, bound), 0, -1)
        for u2 in tails:
            for u3 in tails:
                g3 = gcd(u0, u2, u3)
                for u4 in tails:
                    if g3 == 1 or gcd(g3, u4) == 1:
                        yield u0, u2, u3, u4


def recheck_every_scale(candidates):
    """Recompute each candidate at its own scale through futaki_blowup;
    AssertionError unless F_1 = 0 and F_2 * deg^2 is its psi2_value."""
    config, action = PointConfig.four_points_three_aligned(), DiagAction((2, -1, -1))
    data = [fixed_point_data(action, block) for block in config.blocks]
    for c in candidates:
        points = tuple(blowup.BlownPoint(alpha, phi, lam)
                       for alpha, (phi, lam) in zip(c.alphas, data))
        spec = blowup.BlowupSpec(base=blowup.projective_space_base(2), points=points, m=c.m)
        f1, f2 = blowup.futaki_blowup(spec)
        deg = c.m**2 - sum(a * a for a in c.alphas)
        assert f1 == 0 and f2 * deg**2 == c.psi2_value != 0, (c.m, c.alphas, f1, f2)


def psi_by_clearing(config, action):
    """(psi_1, psi_2) in (m, a1, ..., a<number of points>): each level's point
    sum in x_j, every monomial x^e turned into alpha^e m^{2n+1-l-|e|}."""
    phis, lams = zip(*(fixed_point_data(action, block) for block in config.blocks))
    base, n = blowup.projective_space_base(2), 2
    indices = range(1, len(config.blocks) + 1)
    ratios = MPoly.generators(tuple(f"x{j}" for j in indices))
    variables = ("m",) + tuple(f"a{j}" for j in indices)
    psis = []
    for ell, total in enumerate(blowup_reference.futaki_point_sums(n, base.a, ratios, phis, lams),
                                start=1):
        terms = {}
        for exps, coeff in total.terms():
            spare = 2 * n + 1 - ell - sum(exps)
            assert spare >= 0, (config.kind, action.w, ell, exps)
            terms[(spare,) + exps] = coeff
        psis.append(MPoly(variables, terms))
    return tuple(psis)
