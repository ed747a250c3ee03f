"""Rays and orthonormal triples in R^3, and 101-coloring search.

A coloring marks exactly one ray per basis triple; suitable ray sets admit
none, and then the searcher reports "unsat" with the statistics of its
complete search.  Those statistics are not a certificate: no second program
checks them.  Bundled data uses coordinates in Q[sqrt2], so orthogonality
and deduplication are exact rational arithmetic; decimal coordinates fall
back to a 1e-8 tolerance.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

RAYS_SCHEMA = "rays/v1"
ORTHO_TOL = 1e-8
UNIT_TOL = 1e-10
DATA_DIR_ENV = "INDLAB_DATA_DIR"


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

    def token(self) -> str:
        """File token: "3", "r2", "-r2", "2r2", "1/2", "1+r2", "1-2r2"."""
        if self.q == 0:
            return str(self.p)
        qpart = ("" if abs(self.q) == 1 else str(abs(self.q))) + "r2"
        if self.p == 0:
            return ("-" if self.q < 0 else "") + qpart
        return f"{self.p}{'+' if self.q > 0 else '-'}{qpart}"


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


def _exact_cross(u: ExactVec, v: ExactVec) -> ExactVec:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


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


@dataclass
class ColoringProblem:
    """Deduplicated rays plus basis triples, each the sorted indices of three
    pairwise-orthogonal rays; exactly one mark per basis."""

    rays: list[Ray]
    bases: list[tuple[int, int, int]]


def make_problem(ray_vectors: Sequence[Sequence], bases: Sequence[Sequence[int]]) -> ColoringProblem:
    """Build a problem from raw vectors, deduplicating by canonical form."""
    rays: list[Ray] = []
    remap: list[int] = []
    for i, comps in enumerate(ray_vectors):
        ray = comps if isinstance(comps, Ray) else Ray.from_components(comps)
        idx = None
        for j, existing in enumerate(rays):
            if existing.same_ray(ray):
                idx = j
                break
        if idx is None:
            rays.append(ray)
            idx = len(rays) - 1
        remap.append(idx)
    triples = []
    seen = set()
    for b in bases:
        mapped = tuple(sorted(remap[i] for i in b))
        if len(set(mapped)) != 3:
            raise ValueError(f"basis {tuple(b)} collapses under deduplication")
        if mapped not in seen:
            seen.add(mapped)
            triples.append(mapped)
    return ColoringProblem(rays, triples)


@dataclass(frozen=True)
class ValidationIssue:
    kind: str
    detail: str


@dataclass
class ValidationReport:
    ok: bool
    ray_count: int
    basis_count: int
    issues: list[ValidationIssue]


def validate_problem(problem: ColoringProblem) -> ValidationReport:
    """Check unit norms, basis orthogonality, and deduplication."""
    issues: list[ValidationIssue] = []
    for i, ray in enumerate(problem.rays):
        norm = math.sqrt(sum(x * x for x in ray.direction))
        if abs(norm - 1.0) > UNIT_TOL:
            issues.append(ValidationIssue("unit_norm", f"ray {i} has norm {norm!r}"))
    for i, j in combinations(range(len(problem.rays)), 2):
        if problem.rays[i].same_ray(problem.rays[j]):
            issues.append(ValidationIssue("duplicate", f"rays {i} and {j} coincide"))
    for bi, basis in enumerate(problem.bases):
        missing = [r for r in basis if not 0 <= r < len(problem.rays)]
        issues += [ValidationIssue("reference", f"basis {bi} references missing ray {r}")
                   for r in missing]
        if missing:
            continue  # orthogonality needs every ray
        for r, s in combinations(basis, 2):
            if not problem.rays[r].orthogonal_to(problem.rays[s]):
                ip = problem.rays[r].inner(problem.rays[s])
                issues.append(
                    ValidationIssue(
                        "orthogonality",
                        f"basis {bi}: rays {r},{s} have inner product {ip:.3e}",
                    )
                )
    return ValidationReport(not issues, len(problem.rays), len(problem.bases), issues)


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
        if v not in (0, 1):
            raise ValueError(f"assignment must be total over {{0,1}}, found {v!r}")
    return all(sum(assignment[r] for r in basis) == 1 for basis in problem.bases)


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
        if v not in (0, 1):
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


def save_rays_file(path: str, problem: ColoringProblem) -> None:
    with open(path, "w") as f:
        f.write(f"{RAYS_SCHEMA}\n")
        for i, ray in enumerate(problem.rays):
            if ray.exact is not None:
                comps = " ".join(c.token() for c in ray.exact)
            else:
                comps = " ".join(f"{x:.12f}" for x in ray.direction)
            name = ray.name or f"r{i}"
            f.write(f"ray {name} {comps}\n")
        for basis in problem.bases:
            names = " ".join(
                problem.rays[r].name or f"r{r}" for r in basis
            )
            f.write(f"basis {names}\n")


def load_rays_file(path: str) -> ColoringProblem:
    rays: list[Ray] = []
    names: dict[str, int] = {}
    bases: list[tuple[int, int, int]] = []
    with open(path) as f:
        header = f.readline().strip()
        if header != RAYS_SCHEMA:
            raise ValueError(f"not a {RAYS_SCHEMA} file: header {header!r}")
        for lineno, line in enumerate(f, start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "ray":
                if len(parts) != 5:
                    raise ValueError(f"line {lineno}: ray needs a name and 3 components")
                comps = [parse_component(t) for t in parts[2:]]
                if any(isinstance(c, float) for c in comps):
                    comps = [float(c) for c in comps]
                ray = Ray.from_components(comps, name=parts[1])
                names[parts[1]] = len(rays)
                rays.append(ray)
            elif parts[0] == "basis":
                if len(parts) != 4:
                    raise ValueError(f"line {lineno}: basis needs 3 ray names")
                try:
                    bases.append(tuple(names[n] for n in parts[1:]))
                except KeyError as exc:
                    raise ValueError(f"line {lineno}: unknown ray {exc}") from exc
            else:
                raise ValueError(f"line {lineno}: unknown directive {parts[0]!r}")
    return make_problem(rays, bases)


def data_dir() -> str:
    override = os.environ.get(DATA_DIR_ENV)
    if override:
        return override
    return os.path.join(os.path.dirname(__file__), "data")


def bundled_path(filename: str) -> str:
    path = os.path.join(data_dir(), filename)
    if not os.path.exists(path):
        raise FileNotFoundError(f"no bundled data file {filename!r} in {data_dir()}")
    return path


def bundled_problem(name: str) -> ColoringProblem:
    """Load a bundled ray set: "peres33" or "demo_colorable"."""
    return load_rays_file(bundled_path(f"{name}.rays"))


# -- construction of the bundled Peres-type set -----------------------------


def peres33_directions() -> list[ExactVec]:
    """The 33 directions with components in {0, +-1, +-sqrt2}: the three
    axes, the six axis-plane diagonals, and the 1/sqrt2 mixtures."""
    Z, O, R = Q2(0), Q2(1), Q2(0, 1)
    out: list[ExactVec] = []
    seen = set()

    def add(v: ExactVec) -> None:
        c = _canonical_exact(v)
        if c not in seen:
            seen.add(c)
            out.append(c)

    for i in range(3):
        v = [Z, Z, Z]
        v[i] = O
        add(tuple(v))
    for i, j in combinations(range(3), 2):
        for s in (O, -O):
            v = [Z, Z, Z]
            v[i] = O
            v[j] = s
            add(tuple(v))
    for zero in range(3):
        a, b = (i for i in range(3) if i != zero)
        for one_at, r2_at in ((a, b), (b, a)):
            for s in (R, -R):
                v = [Z, Z, Z]
                v[one_at] = O
                v[r2_at] = s
                add(tuple(v))
    for r2_at in range(3):
        a, b = (i for i in range(3) if i != r2_at)
        for sa in (O, -O):
            for sb in (O, -O):
                v = [Z, Z, Z]
                v[r2_at] = R
                v[a] = sa
                v[b] = sb
                add(tuple(v))
    return out


def build_peres_problem() -> tuple[ColoringProblem, dict]:
    """The bundled KS problem: Peres's 33 directions, all 16 internal
    triads, and one completing ray for each of the 24 orthogonal dyads not
    already inside a triad (every orthogonality constraint then lives in a
    full basis).  Returns the problem and construction statistics."""
    directions = peres33_directions()
    rays = list(directions)
    index = {v: i for i, v in enumerate(rays)}
    pairs = [
        (i, j)
        for i, j in combinations(range(len(rays)), 2)
        if _exact_dot(rays[i], rays[j]).is_zero()
    ]
    pairset = set(pairs)
    triads = [
        (i, j, k)
        for i, j in pairs
        for k in range(j + 1, len(rays))
        if (i, k) in pairset and (j, k) in pairset
    ]
    covered = set()
    for t in triads:
        covered.update(combinations(t, 2))
    completions = 0
    bases = list(triads)
    for i, j in pairs:
        if (i, j) in covered:
            continue
        w = _canonical_exact(_exact_cross(rays[i], rays[j]))
        if w not in index:
            index[w] = len(rays)
            rays.append(w)
            completions += 1
        bases.append(tuple(sorted((i, j, index[w]))))
    stats = {
        "peres_directions": len(directions),
        "orthogonal_dyads": len(pairs),
        "internal_triads": len(triads),
        "completion_rays": completions,
        "total_rays": len(rays),
        "total_bases": len(bases),
    }
    ray_objs = [
        Ray.from_components(v, name=f"p{i}" if i < len(directions) else f"c{i}")
        for i, v in enumerate(rays)
    ]
    return make_problem(ray_objs, bases), stats


def build_demo_problem() -> ColoringProblem:
    """A small colorable set: the standard basis plus two diagonal bases."""
    Z, O = Q2(0), Q2(1)
    vecs = [
        (O, Z, Z),  # x
        (Z, O, Z),  # y
        (Z, Z, O),  # z
        (Z, O, O),
        (Z, O, -O),
        (O, Z, O),
        (O, Z, -O),
    ]
    rays = [Ray.from_components(v, name=n) for v, n in zip(vecs, "x y z d1 d2 d3 d4".split())]
    bases = [(0, 1, 2), (0, 3, 4), (1, 5, 6)]
    return make_problem(rays, bases)
