"""Rays and orthonormal triples in R^3, and 101-coloring search.

A coloring marks exactly one ray per basis triple; suitable ray sets admit
none, and then the searcher reports "unsat" with the statistics of its
complete search.  Those statistics are not a certificate: no second program
checks them.  Every ray holds exact coordinates in Q[sqrt2], so
orthogonality and deduplication are exact arithmetic with no tolerance: a
decimal coordinate is the rational it writes ("0.25" is 1/4), and a float
given to the library is the binary rational it stores.

A ColoringProblem is checked when it is built, by make_problem,
load_rays_file or its own constructor: every basis names three distinct,
existing, pairwise-orthogonal rays, and no two rays coincide, so a
problem that exists is valid.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

RAYS_SCHEMA = "rays/v1"
# A decimal exponent is read exactly, as a power of ten, so it has at most
# four digits: 10**9999 is 33,216 bits, 10**999999999 would be 415 MB.
EXPONENT_DIGITS = 4


class Q2:
    """Exact element p + q*sqrt(2) of the field Q[sqrt2]."""

    __slots__ = ("p", "q")

    def __init__(self, p, q=0):
        self.p = p if isinstance(p, Fraction) else Fraction(p)
        self.q = q if isinstance(q, Fraction) else Fraction(q)

    def __add__(self, o: "Q2") -> "Q2":
        return Q2(self.p + o.p, self.q + o.q)

    def __sub__(self, o: "Q2") -> "Q2":
        return Q2(self.p - o.p, self.q - o.q)

    def __mul__(self, o: "Q2") -> "Q2":
        return Q2(self.p * o.p + 2 * self.q * o.q, self.p * o.q + self.q * o.p)

    def __neg__(self) -> "Q2":
        return Q2(-self.p, -self.q)

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def __eq__(self, o) -> bool:
        return isinstance(o, Q2) and self.p == o.p and self.q == o.q

    def __hash__(self):
        return hash((self.p, self.q))

    def __float__(self) -> float:
        return float(self.p) + float(self.q) * math.sqrt(2.0)

    def __repr__(self) -> str:
        return f"Q2({self.p}, {self.q})"


def parse_component(token: str) -> Q2:
    """A coordinate token p, q*"r2" or p+q*"r2", where p and q are exact
    rationals such as "3", "-1/2", "0.25" or "1e-3": "r2", "-2r2", "1.5r2",
    "1-3/2r2", "1+2e-3r2".  A sign right after e or E is the exponent's,
    and an exponent of more than EXPONENT_DIGITS digits is an error."""
    token = token.strip()
    if any(len(e) > EXPONENT_DIGITS for e in re.findall(r"[eE][+-]?0*(\d*)", token)):
        raise ValueError(f"ray component {token!r} has a decimal exponent of more than "
                         f"{EXPONENT_DIGITS} digits")
    try:
        if not token.endswith("r2"):
            return Q2(Fraction(token), 0)
        core = token[:-2]
        split_at = next((i for i in range(len(core) - 1, 0, -1)
                         if core[i] in "+-" and core[i - 1] not in "eE"), 0)
        p = Fraction(core[:split_at]) if split_at else Fraction(0)
        qs = core[split_at:]
        q = Fraction(1) if qs in ("", "+") else Fraction(-1) if qs == "-" else Fraction(qs)
        return Q2(p, q)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse ray component {token!r}") from exc


ExactVec = tuple[Q2, Q2, Q2]


def _exact_dot(u: ExactVec, v: ExactVec) -> Q2:
    s = Q2(0)
    for a, b in zip(u, v):
        s = s + a * b
    return s


def _component(c) -> Q2:
    """A Q2 as given, or the exact value of a number: a float is the binary
    rational it stores."""
    try:
        return c if isinstance(c, Q2) else Q2(c)
    except (OverflowError, ValueError):  # Fraction of an infinity or a NaN
        raise ValueError(f"ray component {c!r} is not a finite number") from None


def _canonical_exact(v: ExactVec) -> ExactVec:
    """The one representative of the ray through v, whatever Q[sqrt2]
    multiple of it v is: the first nonzero component rational and positive
    (v times that component's conjugate when it is not), and the p and q of
    all three coprime integers."""
    lead = next((c for c in v if not c.is_zero()), None)
    if lead is None:
        raise ValueError("zero vector is not a ray")
    if lead.q:
        conj = Q2(lead.p, -lead.q)
        v = tuple(c * conj for c in v)
        lead = lead * conj
    m = math.lcm(*(x.denominator for c in v for x in (c.p, c.q)))
    ints = [x.numerator * (m // x.denominator) for c in v for x in (c.p, c.q)]
    g = math.gcd(*ints) if lead.p > 0 else -math.gcd(*ints)
    return tuple(Q2(ints[i] // g, ints[i + 1] // g) for i in (0, 2, 4))


@dataclass(frozen=True)
class Ray:
    """A direction in R^3 with v and -v identified.

    Built from three components, each a Q2 or a number (see _component);
    exact holds the primitive Q[sqrt2] coordinates of _canonical_exact, so
    rays compare and hash by the direction itself and name is only a label.
    """

    exact: ExactVec
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if len(self.exact) != 3:
            raise ValueError(f"ray needs 3 components, got {len(self.exact)}")
        object.__setattr__(self, "exact",
                           _canonical_exact(tuple(_component(c) for c in self.exact)))

    @property
    def direction(self) -> tuple[float, float, float]:
        """The unit float vector; the integer coordinates are scaled by a
        power of two first, so no size of coordinate overflows a float."""
        bits = max(abs(x.numerator).bit_length() for c in self.exact for x in (c.p, c.q))
        scale = 1 << max(0, bits - 64)
        v = [float(Q2(c.p / scale, c.q / scale)) for c in self.exact]
        norm = math.hypot(*v)
        return tuple(x / norm for x in v)

    def orthogonal_to(self, other: "Ray") -> bool:
        return _exact_dot(self.exact, other.exact).is_zero()

    def inner(self, other: "Ray") -> float:
        return sum(a * b for a, b in zip(self.direction, other.direction))


def _label(rays: Sequence[Ray], i: int) -> str:
    return rays[i].name or f"r{i}"


def _check_references(basis: Sequence[int], ray_count: int) -> None:
    missing = [r for r in basis if not 0 <= r < ray_count]
    if missing:
        raise ValueError(f"basis {tuple(basis)} refers to missing ray {missing[0]} "
                         f"(there are {ray_count} rays)")
    if len(basis) != 3:
        raise ValueError(f"basis {tuple(basis)} does not have 3 rays")


def _dedup(rays: Sequence[Ray]) -> tuple[list[Ray], list[int]]:
    """The distinct rays in first-seen order, and each ray's index among them."""
    first: dict[Ray, int] = {}
    remap = [first.setdefault(ray, len(first)) for ray in rays]
    return list(first), remap


@dataclass
class ColoringProblem:
    """Distinct rays plus basis triples of ray indices; exactly one mark per
    basis.

    A problem is checked when it is built, whichever way: no two rays
    coincide, every basis names three existing rays, and the rays of each
    basis are pairwise orthogonal, exactly over Q[sqrt2].  Otherwise
    construction raises a ValueError naming the basis and rays at fault.
    """

    rays: list[Ray]
    bases: list[tuple[int, int, int]]

    def __post_init__(self) -> None:
        distinct, remap = _dedup(self.rays)
        if len(distinct) < len(self.rays):
            i = next(i for i, j in enumerate(remap) if i != j)
            raise ValueError(f"rays {_label(self.rays, remap[i])} and "
                             f"{_label(self.rays, i)} coincide")
        for basis in self.bases:
            _check_references(basis, len(self.rays))
            for r, s in combinations(basis, 2):
                a, b = self.rays[r], self.rays[s]
                if not a.orthogonal_to(b):
                    names = " ".join(_label(self.rays, t) for t in basis)
                    raise ValueError(
                        f"basis {names}: rays {_label(self.rays, r)} and "
                        f"{_label(self.rays, s)} are not orthogonal "
                        f"(inner product {a.inner(b):.3e})")


def make_problem(ray_vectors: Sequence, bases: Sequence[Sequence[int]]) -> ColoringProblem:
    """Build a checked problem from rays or raw vectors, merging coinciding
    rays and repeated bases; a basis that merging leaves without three
    distinct rays is an error."""
    given = [v if isinstance(v, Ray) else Ray(v) for v in ray_vectors]
    rays, remap = _dedup(given)
    triples = []
    seen = set()
    for b in bases:
        _check_references(b, len(given))
        for i, j in combinations(b, 2):
            if remap[i] == remap[j]:
                names = " ".join(_label(given, r) for r in b)
                raise ValueError(f"basis {names} collapses under deduplication: rays "
                                 f"{_label(given, i)} and {_label(given, j)} coincide")
        mapped = tuple(sorted(remap[i] for i in b))
        if mapped not in seen:
            seen.add(mapped)
            triples.append(mapped)
    return ColoringProblem(rays, triples)


@dataclass
class SearchStats:
    nodes: int = 0
    max_depth: int = 0


@dataclass
class ColoringResult:
    """colored carries a satisfying assignment; unsat carries the statistics
    of a backtracking search that exhausted the assignment space."""

    status: str  # "colored" | "unsat"
    assignment: Optional[tuple[int, ...]]
    stats: SearchStats


def _propagate(colors: list[int], bases: list[tuple[int, int, int]]) -> bool:
    """Exactly-one propagation to fixpoint; False on contradiction."""
    changed = True
    while changed:
        changed = False
        for basis in bases:
            r0, r1, r2 = basis
            v0, v1, v2 = colors[r0], colors[r1], colors[r2]
            ones = (v0 == 1) + (v1 == 1) + (v2 == 1)
            zeros = (v0 == 0) + (v1 == 0) + (v2 == 0)
            if ones > 1 or zeros == 3:
                return False
            if ones == 1:
                for r in basis:
                    if colors[r] == -1:
                        colors[r] = 0
                        changed = True
            elif zeros == 2:
                for r in basis:
                    if colors[r] == -1:
                        colors[r] = 1
                        changed = True
    return True


def _choose_ray(colors: list[int], bases: list[tuple[int, int, int]]) -> int:
    """Most-constrained unassigned ray: highest count of undecided bases,
    ties broken by lowest index (keeps traces reproducible).  After
    _propagate every unassigned ray lies in a basis with no mark, because
    search_coloring marks a ray in no basis before it starts."""
    score: dict[int, int] = {}
    for basis in bases:
        if any(colors[r] == 1 for r in basis):
            continue
        for r in basis:
            if colors[r] == -1:
                score[r] = score.get(r, 0) + 1
    best = max(score.items(), key=lambda kv: (kv[1], -kv[0]))
    return best[0]


def search_coloring(problem: ColoringProblem) -> ColoringResult:
    """Complete backtracking with exactly-one constraint propagation; stops
    at the first coloring in trace order.

    A ray in no basis is marked 1 before the search and costs no decision.
    The depth-first search runs from an explicit stack, so a problem that
    needs one level per ray is not bounded by the interpreter's recursion
    limit.  Each node pushes its 0 child and then its 1 child, so 1 is
    tried first.
    """
    stats = SearchStats()
    in_basis = {r for basis in problem.bases for r in basis}
    stack = [([-1 if r in in_basis else 1 for r in range(len(problem.rays))], 0)]
    while stack:
        work, depth = stack.pop()
        stats.nodes += 1
        stats.max_depth = max(stats.max_depth, depth)
        if not _propagate(work, problem.bases):
            continue
        if -1 not in work:
            return ColoringResult("colored", tuple(work), stats)
        idx = _choose_ray(work, problem.bases)
        for value in (0, 1):
            child = work[:]
            child[idx] = value
            stack.append((child, depth + 1))
    return ColoringResult("unsat", None, stats)


def verify_coloring(problem: ColoringProblem, assignment: Sequence[int]) -> bool:
    """Independent checker: every basis has exactly one marked ray.

    Deliberately a single pass with no shared machinery with the searcher.
    """
    if len(assignment) != len(problem.rays):
        raise ValueError(
            f"assignment covers {len(assignment)} rays, problem has {len(problem.rays)}"
        )
    for v in assignment:
        # a mark is the integer 0 or 1: True and 1.0 are not
        if not (isinstance(v, numbers.Integral) and not isinstance(v, bool) and v in (0, 1)):
            raise ValueError(f"assignment must be total over {{0,1}}, found {v!r}")
    return all(sum(assignment[r] for r in basis) == 1 for basis in problem.bases)


# -- file format ------------------------------------------------------------


def load_rays_file(path: str) -> ColoringProblem:
    """The checked problem in a rays/v1 file; every error names the file,
    and the line when one line is at fault."""
    rays: list[Ray] = []
    names: dict[str, int] = {}
    defined_on: dict[str, int] = {}
    bases: list[tuple[int, int, int]] = []
    try:
        with open(path) as f:
            header = f.readline().strip()
            if header != RAYS_SCHEMA:
                raise ValueError(f"not a {RAYS_SCHEMA} file: header {header!r}")
            for lineno, line in enumerate(f, start=2):
                parts = line.split()
                if not parts or parts[0].startswith("#"):
                    continue
                try:
                    if parts[0] == "ray":
                        if len(parts) != 5:
                            raise ValueError("ray needs a name and 3 components")
                        comps = [parse_component(t) for t in parts[2:]]
                        if parts[1] in defined_on:
                            raise ValueError(f"ray {parts[1]!r} is already defined on line "
                                             f"{defined_on[parts[1]]}")
                        defined_on[parts[1]] = lineno
                        names[parts[1]] = len(rays)
                        rays.append(Ray(comps, name=parts[1]))
                    elif parts[0] == "basis":
                        if len(parts) != 4:
                            raise ValueError("basis needs 3 ray names")
                        unknown = [n for n in parts[1:] if n not in names]
                        if unknown:
                            raise ValueError(f"unknown ray {unknown[0]!r}")
                        bases.append(tuple(names[n] for n in parts[1:]))
                    else:
                        raise ValueError(f"unknown directive {parts[0]!r}")
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: {exc}") from None
        return make_problem(rays, bases)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
