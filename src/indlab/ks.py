"""Rays and orthonormal triples in R^3, and 101-coloring search.

A coloring marks exactly one ray per basis triple; suitable ray sets admit
none, and then the searcher reports "unsat" with the statistics of its
complete search.  Those statistics are not a certificate: no second program
checks them.  Bundled data uses coordinates in Q[sqrt2], so orthogonality
and deduplication are exact rational arithmetic; decimal coordinates fall
back to a 1e-8 tolerance.

A ColoringProblem is checked when it is built, by make_problem,
load_rays_file or its own constructor: every basis names three distinct,
existing, pairwise-orthogonal rays, and no two rays coincide, so a
problem that exists is valid.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

RAYS_SCHEMA = "rays/v1"
ORTHO_TOL = 1e-8
UNIT_TOL = 1e-10


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

    def sign(self) -> int:
        """Exact sign of p + q*sqrt2 (no floating point)."""
        if self.p == 0 and self.q == 0:
            return 0
        if self.p >= 0 and self.q >= 0:
            return 1
        if self.p <= 0 and self.q <= 0:
            return -1
        big_rational = self.p * self.p > 2 * self.q * self.q
        if self.p > 0:
            return 1 if big_rational else -1
        return -1 if big_rational else 1

    def __float__(self) -> float:
        return float(self.p) + float(self.q) * math.sqrt(2.0)

    def __repr__(self) -> str:
        return f"Q2({self.p}, {self.q})"


def parse_component(token: str) -> Q2 | float:
    """A coordinate token: exact forms like "3", "-1/2", "r2", "-2r2",
    "1+r2", "1-3/2r2"; decimal forms fall back to float."""
    token = token.strip()
    if "." in token or "e" in token.lower():
        return float(token)
    try:
        if not token.endswith("r2"):
            return Q2(Fraction(token), 0)
        core = token[:-2]
        split_at = -1
        for i in range(len(core) - 1, 0, -1):
            if core[i] in "+-":
                split_at = i
                break
        if split_at == -1:
            p = Fraction(0)
            qs = core
        else:
            p = Fraction(core[:split_at])
            qs = core[split_at:]
        if qs in ("", "+"):
            q = Fraction(1)
        elif qs == "-":
            q = Fraction(-1)
        else:
            q = Fraction(qs)
        return Q2(p, q)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse ray component {token!r}") from exc


ExactVec = tuple[Q2, Q2, Q2]


def _exact_dot(u: ExactVec, v: ExactVec) -> Q2:
    s = Q2(0)
    for a, b in zip(u, v):
        s = s + a * b
    return s


def _canonical_exact(v: ExactVec) -> ExactVec:
    """Primitive representative of the ray through v: cleared denominators,
    content divided out, sqrt2 factored away when common, and the first
    nonzero component positive (sign identification of v and -v)."""
    if all(c.is_zero() for c in v):
        raise ValueError("zero vector is not a ray")
    m = math.lcm(*(c.p.denominator for c in v), *(c.q.denominator for c in v))
    v = tuple(Q2(c.p * m, c.q * m) for c in v)
    if all(c.p == 0 for c in v):
        # sqrt2 * (q1, q2, q3): same ray as the rational vector (q1, q2, q3)
        v = tuple(Q2(c.q, 0) for c in v)
    g = 0
    for c in v:
        g = math.gcd(g, abs(c.p.numerator), abs(c.q.numerator))
    if g > 1:
        v = tuple(Q2(Fraction(c.p, g), Fraction(c.q, g)) for c in v)
    for c in v:
        s = c.sign()
        if s > 0:
            return v
        if s < 0:
            return tuple(-c for c in v)
    raise AssertionError("unreachable: nonzero vector has a signed component")


@dataclass(frozen=True)
class Ray:
    """A direction in R^3 with v and -v identified.

    direction is the unit float vector, canonicalized so the first nonzero
    coordinate is positive; exact holds the primitive Q[sqrt2] coordinates
    when the ray came from exact data.
    """

    direction: tuple[float, float, float]
    exact: Optional[ExactVec] = field(default=None, compare=False)
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if len(self.direction) != 3 or abs(math.hypot(*self.direction) - 1.0) > UNIT_TOL:
            raise ValueError(f"ray direction {self.direction!r} is not a unit 3-vector")

    @staticmethod
    def from_components(comps: Sequence, name: str = "") -> "Ray":
        if len(comps) != 3:
            raise ValueError(f"ray needs 3 components, got {len(comps)}")
        if all(isinstance(c, Q2) for c in comps):
            exact = _canonical_exact(tuple(comps))
            floats = tuple(float(c) for c in exact)
            norm = math.sqrt(sum(x * x for x in floats))
            return Ray(tuple(x / norm for x in floats), exact, name)
        floats = tuple(float(c) for c in comps)
        norm = math.sqrt(sum(x * x for x in floats))
        if norm == 0.0:
            raise ValueError("zero vector is not a ray")
        unit = tuple(x / norm for x in floats)
        for x in unit:
            if abs(x) > UNIT_TOL:
                if x < 0:
                    unit = tuple(-y for y in unit)
                break
        return Ray(unit, None, name)

    def same_ray(self, other: "Ray") -> bool:
        if self.exact is not None and other.exact is not None:
            return self.exact == other.exact
        d = sum(a * b for a, b in zip(self.direction, other.direction))
        return abs(abs(d) - 1.0) <= ORTHO_TOL

    def orthogonal_to(self, other: "Ray") -> bool:
        if self.exact is not None and other.exact is not None:
            return _exact_dot(self.exact, other.exact).is_zero()
        d = sum(a * b for a, b in zip(self.direction, other.direction))
        return abs(d) <= ORTHO_TOL

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
    """The distinct rays in first-seen order, and each ray's index among them.

    Exact rays meet by one dict lookup of their canonical coordinates; only
    a pair involving a decimal ray is compared by inner product.
    """
    distinct: list[Ray] = []
    remap: list[int] = []
    by_exact: dict[ExactVec, int] = {}
    decimal: list[int] = []
    for ray in rays:
        scan = range(len(distinct)) if ray.exact is None else decimal
        matches = [j for j in scan if distinct[j].same_ray(ray)]
        if ray.exact in by_exact:
            matches.append(by_exact[ray.exact])
        if matches:
            remap.append(min(matches))
            continue
        if ray.exact is None:
            decimal.append(len(distinct))
        else:
            by_exact[ray.exact] = len(distinct)
        remap.append(len(distinct))
        distinct.append(ray)
    return distinct, remap


@dataclass
class ColoringProblem:
    """Distinct rays plus basis triples of ray indices; exactly one mark per
    basis.

    A problem is checked when it is built, whichever way: no two rays
    coincide, every basis names three existing rays, and the rays of each
    basis are pairwise orthogonal (exactly over Q[sqrt2], within ORTHO_TOL
    for decimal rays).  Otherwise construction raises a ValueError naming
    the basis and rays at fault.
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
    given = [v if isinstance(v, Ray) else Ray.from_components(v) for v in ray_vectors]
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
    ties broken by lowest index (keeps traces reproducible)."""
    score: dict[int, int] = {}
    for basis in bases:
        if any(colors[r] == 1 for r in basis):
            continue
        for r in basis:
            if colors[r] == -1:
                score[r] = score.get(r, 0) + 1
    if not score:
        for r, c in enumerate(colors):
            if c == -1:
                return r
        return -1
    best = max(score.items(), key=lambda kv: (kv[1], -kv[0]))
    return best[0]


def search_coloring(problem: ColoringProblem) -> ColoringResult:
    """Complete backtracking with exactly-one constraint propagation; stops
    at the first coloring in trace order."""
    stats = SearchStats()

    def rec(state: list[int], depth: int) -> Optional[tuple[int, ...]]:
        stats.nodes += 1
        stats.max_depth = max(stats.max_depth, depth)
        work = state[:]
        if not _propagate(work, problem.bases):
            return None
        if -1 not in work:
            return tuple(work)
        idx = _choose_ray(work, problem.bases)
        for value in (1, 0):
            child = work[:]
            child[idx] = value
            found = rec(child, depth + 1)
            if found is not None:
                return found
        return None

    assignment = rec([-1] * len(problem.rays), 0)
    return ColoringResult("unsat" if assignment is None else "colored", assignment, stats)


def verify_coloring(problem: ColoringProblem, assignment: Sequence[int]) -> bool:
    """Independent checker: every basis has exactly one marked ray.

    Deliberately a single pass with no shared machinery with the searcher.
    """
    if len(assignment) != len(problem.rays):
        raise ValueError(
            f"assignment covers {len(assignment)} rays, problem has {len(problem.rays)}"
        )
    for v in assignment:
        if not _is_mark(v):
            raise ValueError(f"assignment must be total over {{0,1}}, found {v!r}")
    return all(sum(assignment[r] for r in basis) == 1 for basis in problem.bases)


def _is_mark(v) -> bool:
    """A mark or outcome is the integer 0 or 1: True and 1.0 are not."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool) and v in (0, 1)


# -- the free-will-theorem reduction ---------------------------------------


@dataclass
class FwtReport:
    """Outcome of checking a claimed deterministic value map.

    Perfect correlation at shared rays forces each ray's value to be basis
    independent; a consistent map then induces a coloring, which the
    independent verifier accepts or rejects.
    """

    consistent: bool
    coloring_valid: bool
    violations: list[str]
    induced_coloring: Optional[tuple[int, ...]]

    @property
    def passed(self) -> bool:
        return self.consistent and self.coloring_valid


def fwt_reduction_check(problem: ColoringProblem, value_map: dict) -> FwtReport:
    """Check a map (basis_index, position) -> {0,1} of claimed outcomes.

    Outcomes are squared spin components, so the per-basis outcome triple
    must contain exactly one 0; the marked ray of the induced coloring is
    the one with outcome 0.
    """
    values: dict[tuple[int, int], int] = {}
    for key, v in value_map.items():
        bi, pos = key
        if not (0 <= bi < len(problem.bases) and 0 <= pos < 3):
            raise ValueError(f"value map key {key!r} out of range")
        if not _is_mark(v):
            raise ValueError(f"outcome must be 0 or 1, got {v!r}")
        values[(bi, pos)] = v
    for bi in range(len(problem.bases)):
        for pos in range(3):
            if (bi, pos) not in values:
                raise ValueError(f"value map is partial: missing basis {bi} position {pos}")

    by_ray: dict[int, dict[int, int]] = {}
    for bi, basis in enumerate(problem.bases):
        for pos, r in enumerate(basis):
            by_ray.setdefault(r, {})[bi] = values[(bi, pos)]
    violations = []
    ray_value: dict[int, int] = {}
    for r, per_basis in sorted(by_ray.items()):
        vals = set(per_basis.values())
        if len(vals) > 1:
            bs = sorted(per_basis)
            violations.append(
                f"ray {r} takes value {per_basis[bs[0]]} in basis {bs[0]} but "
                f"{[per_basis[b] for b in bs[1:]]} in bases {bs[1:]}: "
                "shared-ray outcomes must agree"
            )
        else:
            ray_value[r] = vals.pop()
    if violations:
        return FwtReport(False, False, violations, None)
    coloring = tuple(
        1 - ray_value.get(r, 1) for r in range(len(problem.rays))
    )  # marked <-> outcome 0
    valid = verify_coloring(problem, coloring)
    if not valid:
        violations.append("induced coloring violates the one-mark-per-basis rule")
    return FwtReport(True, valid, violations, coloring)


def coloring_to_value_map(problem: ColoringProblem, assignment: Sequence[int]) -> dict:
    """Outcome map induced by a coloring: marked ray gets outcome 0."""
    out = {}
    for bi, basis in enumerate(problem.bases):
        for pos, r in enumerate(basis):
            out[(bi, pos)] = 0 if assignment[r] == 1 else 1
    return out


def outcome_tuples(problem: ColoringProblem, assignment: Sequence[int]) -> list[tuple[int, ...]]:
    """Per-basis squared-spin outcome tuples under marked <-> eigenvalue 0."""
    return [
        tuple(0 if assignment[r] == 1 else 1 for r in basis)
        for basis in problem.bases
    ]


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
                        if any(isinstance(c, float) for c in comps):
                            comps = [float(c) for c in comps]
                        if parts[1] in defined_on:
                            raise ValueError(f"ray {parts[1]!r} is already defined on line "
                                             f"{defined_on[parts[1]]}")
                        defined_on[parts[1]] = lineno
                        names[parts[1]] = len(rays)
                        rays.append(Ray.from_components(comps, name=parts[1]))
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
