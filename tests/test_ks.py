import math
import re
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from indlab import ks

from bundled import bundled_problem

RNG = np.random.Generator(np.random.Philox(key=[31337, 0]))

# frozen from the bundled data generation run
PERES_RAYS = 57
PERES_BASES = 40
ORACLE_MAX_RAYS = 20


def oracle_enumerate(problem):
    """Brute-force 2^n enumeration for small problems; the searcher's oracle."""
    n = len(problem.rays)
    if n > ORACLE_MAX_RAYS:
        raise ValueError(f"oracle limited to {ORACLE_MAX_RAYS} rays, got {n}")
    out = []
    for mask in range(1 << n):
        assignment = tuple((mask >> i) & 1 for i in range(n))
        if all(sum(assignment[r] for r in basis) == 1 for basis in problem.bases):
            out.append(assignment)
    return out


def subproblem(problem, ray_indices):
    """Induced problem on a subset of rays: bases fully inside the subset."""
    keep = sorted(set(ray_indices))
    pos = {r: i for i, r in enumerate(keep)}
    rays = [problem.rays[r] for r in keep]
    bases = [
        tuple(sorted(pos[r] for r in basis))
        for basis in problem.bases
        if all(r in pos for r in basis)
    ]
    return ks.ColoringProblem(rays, bases)


def recursive_search(problem):
    """The recursive search that search_coloring's stack replaced, started
    as search_coloring is, with every ray in no basis marked: (status,
    assignment, nodes, max_depth)."""
    stats = ks.SearchStats()

    def rec(state, depth):
        stats.nodes += 1
        stats.max_depth = max(stats.max_depth, depth)
        work = state[:]
        if not ks._propagate(work, problem.bases):
            return None
        if -1 not in work:
            return tuple(work)
        idx = ks._choose_ray(work, problem.bases)
        for value in (1, 0):
            child = work[:]
            child[idx] = value
            found = rec(child, depth + 1)
            if found is not None:
                return found
        return None

    in_basis = {r for basis in problem.bases for r in basis}
    assignment = rec([-1 if r in in_basis else 1 for r in range(len(problem.rays))], 0)
    return ("unsat" if assignment is None else "colored", assignment, stats.nodes,
            stats.max_depth)


def token(x):
    """File token of a Q2: "3", "r2", "-r2", "2r2", "1/2", "1+r2", "1-2r2"."""
    if x.q == 0:
        return str(x.p)
    qpart = ("" if abs(x.q) == 1 else str(abs(x.q))) + "r2"
    if x.p == 0:
        return ("-" if x.q < 0 else "") + qpart
    return f"{x.p}{'+' if x.q > 0 else '-'}{qpart}"


def save_rays_file(path, problem):
    """Write problem as a rays/v1 file of exact coordinates."""
    with open(path, "w") as f:
        f.write(f"{ks.RAYS_SCHEMA}\n")
        for i, ray in enumerate(problem.rays):
            comps = " ".join(token(c) for c in ray.exact)
            f.write(f"ray {ray.name or f'r{i}'} {comps}\n")
        for basis in problem.bases:
            f.write(f"basis {' '.join(problem.rays[r].name or f'r{r}' for r in basis)}\n")


def canonical(v):
    return ks.Ray(v).exact


def dot(u, v):
    return sum((a * b for a, b in zip(u, v)), ks.Q2(0))


def cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def peres33_directions():
    """The 33 directions with components in {0, +-1, +-sqrt2}: the three
    axes, the six axis-plane diagonals, and the 1/sqrt2 mixtures."""
    Z, O, R = ks.Q2(0), ks.Q2(1), ks.Q2(0, 1)
    out = []
    seen = set()

    def add(v):
        c = canonical(v)
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


def build_peres_problem():
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
        if dot(rays[i], rays[j]).is_zero()
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
        w = canonical(cross(rays[i], rays[j]))
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
        ks.Ray(v, name=f"p{i}" if i < len(directions) else f"c{i}")
        for i, v in enumerate(rays)
    ]
    return ks.make_problem(ray_objs, bases), stats


def build_demo_problem():
    """A small colorable set: the standard basis plus two diagonal bases."""
    Z, O = ks.Q2(0), ks.Q2(1)
    vecs = [
        (O, Z, Z),  # x
        (Z, O, Z),  # y
        (Z, Z, O),  # z
        (Z, O, O),
        (Z, O, -O),
        (O, Z, O),
        (O, Z, -O),
    ]
    rays = [ks.Ray(v, name=n)
            for v, n in zip(vecs, "x y z d1 d2 d3 d4".split())]
    return ks.make_problem(rays, [(0, 1, 2), (0, 3, 4), (1, 5, 6)])


def random_q2_problem(seed):
    """Raw vectors over Q[sqrt2] and basis triples of one seeded problem.

    Each basis starts from a vector already drawn (so bases share rays) or a
    fresh one with small integer p and q, and is completed by cross
    products; a few vectors are listed twice more.
    """
    rng = np.random.Generator(np.random.Philox(key=[seed, 16]))

    def fresh():
        v = tuple(ks.Q2(int(p), int(q)) for p, q in rng.integers(-2, 3, size=(3, 2)))
        return v if not all(c.is_zero() for c in v) else fresh()

    vectors, bases = [], []
    for _ in range(int(rng.integers(2, 9))):
        u = vectors[int(rng.integers(len(vectors)))] if vectors and rng.random() < 0.8 \
            else fresh()
        w = cross(u, fresh())
        while all(c.is_zero() for c in w):
            w = cross(u, fresh())
        bases.append((len(vectors), len(vectors) + 1, len(vectors) + 2))
        vectors += [u, cross(w, u), w]
    vectors += [vectors[int(i)] for i in rng.integers(len(vectors), size=3)]
    return vectors, bases


def rescaled(vectors, seed):
    """Each vector times its own random nonzero element of Q[sqrt2], which
    may flip its sign: the same rays, written differently."""
    rng = np.random.Generator(np.random.Philox(key=[seed, 17]))
    out = []
    for v in vectors:
        s = ks.Q2(0)
        while s.is_zero():
            s = ks.Q2(Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4))),
                      int(rng.integers(-2, 3)))
        out.append(tuple(c * s for c in v))
    return out


def oracle_inputs(key):
    """Raw vectors and bases of a seeded random problem or a bundled file."""
    if isinstance(key, int):
        return random_q2_problem(key)
    problem = bundled_problem(key)
    return [ray.exact for ray in problem.rays], problem.bases


def search_and_verify(problem, seed):
    """Rays, bases, search status, nodes, depth and coloring, then
    verify_coloring on four random assignments, the coloring and the
    coloring with one of its first two marks flipped."""
    result = ks.search_coloring(problem)
    rng = np.random.Generator(np.random.Philox(key=[seed, 18]))
    trials = [tuple(int(x) for x in rng.integers(0, 2, size=len(problem.rays)))
              for _ in range(4)]
    coloring = result.assignment
    if coloring is not None:
        trials += [coloring] + [coloring[:i] + (1 - coloring[i],) + coloring[i + 1:]
                                for i in range(2)]
    return (len(problem.rays), len(problem.bases), result.status, result.stats.nodes,
            result.stats.max_depth, coloring and "".join(map(str, coloring)),
            "".join(str(int(ks.verify_coloring(problem, a))) for a in trials))


# search_and_verify on the unscaled inputs, as frozen from the ks module of
# float-tolerant rays.  That module gives the same on all but seed 8, where it
# kept a ray and its (-144 + 96 sqrt2) multiple apart: 13 rays and 6 bases.
ORACLE_RESULTS = {
    0: (16, 7, "colored", 6, 5, "1001000100010100", "0000100"),
    1: (5, 2, "colored", 2, 1, "00100", "0000100"),
    2: (20, 8, "colored", 7, 6, "10010010000100001010", "0000100"),
    3: (5, 2, "colored", 2, 1, "01000", "0000100"),
    4: (5, 2, "colored", 2, 1, "10000", "0000100"),
    5: (7, 3, "colored", 2, 1, "0010000", "1000100"),
    6: (5, 2, "colored", 2, 1, "01000", "0000100"),
    7: (13, 6, "colored", 4, 3, "1000010000010", "0000100"),
    8: (11, 5, "colored", 3, 2, "10000000010", "0000100"),
    9: (8, 3, "colored", 3, 2, "00110000", "0000100"),
    10: (11, 5, "colored", 4, 3, "00100100010", "0000100"),
    11: (7, 3, "colored", 3, 2, "1000010", "0100100"),
    "peres33": (57, 40, "unsat", 17, 4, None, "0000"),
    "demo_colorable": (7, 3, "colored", 3, 2, "1000010", "1000100"),
}


@pytest.fixture(scope="module")
def peres():
    return bundled_problem("peres33")


@pytest.fixture(scope="module")
def demo():
    return bundled_problem("demo_colorable")


fractions = st.fractions(min_value=-8, max_value=8, max_denominator=6)


class TestQ2:
    @given(fractions, fractions, fractions, fractions)
    def test_field_operations(self, p1, q1, p2, q2):
        a, b = ks.Q2(p1, q1), ks.Q2(p2, q2)
        assert float(a + b) == pytest.approx(float(a) + float(b), abs=1e-9)
        assert float(a * b) == pytest.approx(float(a) * float(b), abs=1e-9)
        assert float(a - b) == pytest.approx(float(a) - float(b), abs=1e-9)

    @given(fractions, fractions)
    def test_token_roundtrip(self, p, q):
        x = ks.Q2(p, q)
        back = ks.parse_component(token(x))
        assert isinstance(back, ks.Q2) and back == x

    @pytest.mark.parametrize(
        "token,p,q",
        [
            ("3", 3, 0),
            ("-1/2", Fraction(-1, 2), 0),
            ("r2", 0, 1),
            ("-r2", 0, -1),
            ("2r2", 0, 2),
            ("1+r2", 1, 1),
            ("1-3/2r2", 1, Fraction(-3, 2)),
            ("0.25", Fraction(1, 4), 0),
            ("1e-3", Fraction(1, 1000), 0),
            ("-2.5E+2", -250, 0),
            ("1.5r2", 0, Fraction(3, 2)),
            ("1+2e-3r2", 1, Fraction(1, 500)),
            ("1e-3-2E-2r2", Fraction(1, 1000), Fraction(-1, 50)),
        ],
    )
    def test_parse_forms(self, token, p, q):
        x = ks.parse_component(token)
        assert x == ks.Q2(p, q)

    @pytest.mark.parametrize("text", ["0.1", "0.70710678", "1e-9", "1e999", "-3.25e-400",
                                      "1e-09999"])
    def test_parse_decimal_is_exact(self, text):
        """A decimal token is the rational it writes, not the nearest float."""
        assert ks.parse_component(text) == ks.Q2(Fraction(text))

    @pytest.mark.parametrize("text", ["1e10000", "-1E+010000", "2e-10000r2", "1+2e99999r2"])
    def test_exponent_of_five_digits_rejected(self, text):
        with pytest.raises(ValueError, match=re.escape(
                f"ray component {text!r} has a decimal exponent of more than 4 digits")):
            ks.parse_component(text)

    def test_parse_garbage(self):
        for text in ("r3", "inf", "-nan", "1e", "1/0", "1+e-3r2"):
            with pytest.raises(ValueError, match=re.escape(f"cannot parse ray component {text!r}")):
                ks.parse_component(text)


class TestRay:
    def test_sign_identification(self):
        a = ks.Ray([ks.Q2(1), ks.Q2(-1), ks.Q2(0)])
        b = ks.Ray([ks.Q2(-1), ks.Q2(1), ks.Q2(0)])
        assert a == b and hash(a) == hash(b)
        assert a.exact == b.exact

    def test_canonical_idempotent(self):
        a = ks.Ray([ks.Q2(2), ks.Q2(0), ks.Q2(-2)])
        b = ks.Ray(list(a.exact))
        assert a.exact == b.exact

    def test_unit_norm(self):
        a = ks.Ray([ks.Q2(1), ks.Q2(1), ks.Q2(0, 1)])
        assert sum(x * x for x in a.direction) == pytest.approx(1.0, abs=1e-12)

    def test_sqrt2_multiple_collapses(self):
        a = ks.Ray([ks.Q2(0, 1), ks.Q2(0, 1), ks.Q2(0)])
        b = ks.Ray([ks.Q2(1), ks.Q2(1), ks.Q2(0)])
        assert a == b

    def test_float_rays(self):
        """A float is the binary rational it stores, compared exactly."""
        a = ks.Ray([0.6, 0.8, 0.0])
        assert a == ks.Ray([-0.6, -0.8, 0.0])
        assert a == ks.Ray([ks.Q2(Fraction(0.6)), ks.Q2(Fraction(0.8)), ks.Q2(0)])
        assert a != ks.Ray([ks.Q2(Fraction(3, 5)), ks.Q2(Fraction(4, 5)), ks.Q2(0)])
        assert a.orthogonal_to(ks.Ray([0.8, -0.6, 0.0]))
        assert not a.orthogonal_to(ks.Ray([0.8, -0.6 + 1e-16, 0.0]))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero vector is not a ray"):
            ks.Ray([0.0, 0.0, 0.0])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_component_rejected(self, bad):
        with pytest.raises(ValueError, match=f"ray component {bad} is not a finite number"):
            ks.Ray([1.0, bad, 0.0])

    def test_ray_needs_three_components(self):
        with pytest.raises(ValueError, match="ray needs 3 components, got 2"):
            ks.Ray((1.0, 0.0))

    @pytest.mark.parametrize("big", [10 ** 999, 2 ** 5000 + 1], ids=["10^999", "2^5000+1"])
    def test_direction_of_huge_coordinates_is_finite(self, big):
        assert ks.Ray([big, 1, 0]).direction == (1.0, 0.0, 0.0)
        assert ks.Ray([Fraction(1, big), 0, 1]).direction == (0.0, 0.0, 1.0)
        tilted = ks.Ray([big, big, ks.Q2(0, big)]).direction
        assert tilted == pytest.approx((0.5, 0.5, math.sqrt(0.5)), abs=1e-15)


AXES = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
# the two public ways to build a problem from vectors
BUILDERS = [
    lambda vectors, bases: ks.ColoringProblem([ks.Ray(v) for v in vectors],
                                              bases),
    ks.make_problem,
]


class TestValidation:
    """A problem is checked when it is built, by every public path."""

    def test_standard_basis_valid(self):
        problem = ks.make_problem(
            [[ks.Q2(1), ks.Q2(0), ks.Q2(0)],
             [ks.Q2(0), ks.Q2(1), ks.Q2(0)],
             [ks.Q2(0), ks.Q2(0), ks.Q2(1)]],
            [(0, 1, 2)],
        )
        assert (len(problem.rays), problem.bases) == (3, [(0, 1, 2)])

    def test_non_orthogonal_diagnosed(self):
        # the second basis is orthogonal to eight places only, so it is not
        cases = [([[1.0, 0.0, 0.0], [0.1, 0.995, 0.0], [0.0, 0.0, 1.0]], "1.000e-01"),
                 ([[1, 1, 1.41421356], [1, 1, -1.41421356], [1, -1, 0]], "1.678e-09")]
        for build in BUILDERS:
            for vectors, inner in cases:
                with pytest.raises(ValueError, match=re.escape(
                        f"basis r0 r1 r2: rays r0 and r1 are not orthogonal "
                        f"(inner product {inner})")):
                    build(vectors, [(0, 1, 2)])

    def test_exact_non_orthogonal_basis_rejected(self):
        o, z = ks.Q2(1), ks.Q2(0)
        with pytest.raises(ValueError, match="rays r0 and r2 are not orthogonal"):
            ks.make_problem([(o, z, z), (z, o, z), (o, o, z)], [(0, 1, 2)])

    def test_bundled_peres_counts(self, peres):
        assert (len(peres.rays), len(peres.bases)) == (PERES_RAYS, PERES_BASES)

    def test_missing_ray_reference_diagnosed(self):
        for build in BUILDERS:
            for basis, missing in (((0, 1, 7), 7), ((-1, 0, 1), -1)):
                with pytest.raises(ValueError, match=re.escape(
                        f"basis {basis} refers to missing ray {missing} (there are 3 rays)")):
                    build(AXES, [basis])

    def test_basis_of_two_rays_rejected(self):
        with pytest.raises(ValueError, match="does not have 3 rays"):
            ks.make_problem(AXES, [(0, 1)])

    def test_duplicate_detection(self):
        rays = [ks.Ray([1.0, 0.0, 0.0], name="a"),
                ks.Ray([-1.0, 0.0, 0.0], name="b")]
        with pytest.raises(ValueError, match="rays a and b coincide"):
            ks.ColoringProblem(rays, [])
        assert len(ks.make_problem(rays, []).rays) == 1

    def test_exact_duplicate_detection(self, peres):
        with pytest.raises(ValueError, match="rays p0 and p0 coincide"):
            ks.ColoringProblem(peres.rays + [peres.rays[0]], [])

    def test_collapsing_basis_names_its_rays(self):
        rays = [ks.Ray(v, name=n)
                for v, n in ((AXES[0], "a"), (AXES[1], "b"), ([-1.0, 0.0, 0.0], "c"))]
        with pytest.raises(ValueError, match="basis a b c collapses under deduplication: "
                                             "rays a and c coincide"):
            ks.make_problem(rays, [(0, 1, 2)])

    def test_dedup_matches_the_pairwise_scan(self):
        """Keyed deduplication keeps the first ray seen, as a pairwise ==
        scan does, on the oracle problems written under random scalings."""
        for key in ORACLE_RESULTS:
            vectors, _ = oracle_inputs(key)
            seed = key if isinstance(key, int) else 0
            rays = [ks.Ray(v) for v in vectors + rescaled(vectors, seed)]
            distinct, remap = ks._dedup(rays)
            expected_distinct, expected_remap = [], []
            for ray in rays:
                j = next((j for j, d in enumerate(expected_distinct) if d == ray), None)
                if j is None:
                    expected_distinct.append(ray)
                    j = len(expected_distinct) - 1
                expected_remap.append(j)
            assert remap == expected_remap
            assert all(a is b for a, b in zip(distinct, expected_distinct))
            assert len(distinct) == ORACLE_RESULTS[key][0]


class TestSearch:
    def test_single_basis_three_solutions(self):
        problem = ks.make_problem(
            [[ks.Q2(1), ks.Q2(0), ks.Q2(0)],
             [ks.Q2(0), ks.Q2(1), ks.Q2(0)],
             [ks.Q2(0), ks.Q2(0), ks.Q2(1)]],
            [(0, 1, 2)],
        )
        result = ks.search_coloring(problem)
        assert result.status == "colored"
        assert ks.verify_coloring(problem, result.assignment)
        assert len(oracle_enumerate(problem)) == 3

    def test_two_disjoint_bases_nine_solutions(self):
        z, o = ks.Q2(0), ks.Q2(1)
        vecs = [
            (o, z, z), (z, o, z), (z, z, o),          # standard basis
            (z, o, o), (z, o, -o), (o, z, z),          # rotated about x: x,(0,1,1),(0,1,-1)
        ]
        problem = ks.make_problem(
            [vecs[i] for i in (0, 1, 2)] + [(z, o, o), (z, o, -o), (o, o, z)],
            [],
        )
        # build explicitly: two triads sharing no rays
        q = ks.make_problem(
            [
                (o, z, z), (z, o, z), (z, z, o),
                (o, o, z), (o, -o, z), (z, z, -o),
            ],
            [(0, 1, 2), (3, 4, 5)],
        )
        # dedup folds (0,0,1) and (0,0,-1) together: bases then share a ray,
        # so count on truly disjoint triples instead
        assert len(q.rays) == 5
        p2 = ks.make_problem(
            [
                (o, z, z), (z, o, z), (z, z, o),
                (ks.Q2(1), ks.Q2(1), ks.Q2(1)),
                (ks.Q2(1), ks.Q2(-1), ks.Q2(0)),
                (ks.Q2(1), ks.Q2(1), ks.Q2(-2)),
            ],
            [(0, 1, 2), (3, 4, 5)],
        )
        assert len(p2.rays) == 6 and len(p2.bases) == 2
        assert len(oracle_enumerate(p2)) == 9
        assert ks.search_coloring(p2).assignment in oracle_enumerate(p2)

    def test_bundled_peres_unsat(self, peres):
        result = ks.search_coloring(peres)
        assert result.status == "unsat"
        assert result.assignment is None
        assert result.stats.nodes > 0

    def test_demo_colorable_and_verified(self, demo):
        result = ks.search_coloring(demo)
        assert result.status == "colored"
        assert ks.verify_coloring(demo, result.assignment)

    def test_search_deterministic(self, demo):
        a = ks.search_coloring(demo)
        b = ks.search_coloring(demo)
        assert a.assignment == b.assignment
        assert a.stats.nodes == b.stats.nodes


class TestVerifier:
    def test_all_zeros_fails(self, demo):
        assert not ks.verify_coloring(demo, (0,) * len(demo.rays))

    def test_flip_breaks(self, demo):
        result = ks.search_coloring(demo)
        good = list(result.assignment)
        for i in range(len(good)):
            flipped = good[:]
            flipped[i] = 1 - flipped[i]
            assert not ks.verify_coloring(demo, flipped)

    def test_partial_rejected(self, demo):
        with pytest.raises(ValueError, match="total"):
            ks.verify_coloring(demo, (0, 1, None, 0, 0, 0, 0))
        with pytest.raises(ValueError, match="covers"):
            ks.verify_coloring(demo, (0, 1))

    @pytest.mark.parametrize("mark", [True, 1.0])
    def test_marks_are_the_integers_0_and_1(self, demo, mark):
        coloring = list(ks.search_coloring(demo).assignment)
        assert ks.verify_coloring(demo, coloring)
        coloring[coloring.index(1)] = mark
        with pytest.raises(ValueError, match=f"found {mark}$"):
            ks.verify_coloring(demo, coloring)


class TestOracleAgreement:
    def test_random_subproblems(self, peres):
        for trial in range(25):
            size = int(RNG.integers(4, 17))
            subset = RNG.choice(len(peres.rays), size=size, replace=False)
            sub = subproblem(peres, [int(i) for i in subset])
            oracle = oracle_enumerate(sub)
            search = ks.search_coloring(sub)
            assert (search.status == "colored") == bool(oracle)
            if oracle:
                assert search.assignment in oracle

    def test_same_result_as_the_recursive_search(self, peres, demo):
        problems = [peres, demo]
        for _ in range(300):
            size = int(RNG.integers(1, len(peres.bases) + 1))
            chosen = RNG.choice(len(peres.bases), size=size, replace=False)
            problems.append(ks.ColoringProblem(peres.rays,
                                               [peres.bases[int(i)] for i in sorted(chosen)]))
        for problem in problems:
            result = ks.search_coloring(problem)
            assert (result.status, result.assignment, result.stats.nodes,
                    result.stats.max_depth) == recursive_search(problem)
        result = ks.search_coloring(peres)
        assert (result.status, result.stats.nodes, result.stats.max_depth) == ("unsat", 17, 4)

    def test_oracle_cap(self, peres):
        with pytest.raises(ValueError, match="20"):
            oracle_enumerate(peres)

    @pytest.mark.parametrize("scaled", [False, True], ids=["as-drawn", "rescaled"])
    @pytest.mark.parametrize("key", list(ORACLE_RESULTS))
    def test_search_and_verify_give_the_frozen_results(self, key, scaled):
        """Exact rays change no result on exact input, however each ray is
        scaled."""
        vectors, bases = oracle_inputs(key)
        seed = key if isinstance(key, int) else 0
        if scaled:
            vectors = rescaled(vectors, seed)
        problem = ks.make_problem(vectors, bases)
        assert search_and_verify(problem, seed) == ORACLE_RESULTS[key]

    def test_seed_8_lists_a_ray_and_its_q2_multiple(self):
        vectors, _ = random_q2_problem(8)
        scale = ks.Q2(-144, 96)
        assert [v * scale for v in vectors[5]] == list(vectors[10])
        assert ks.Ray(vectors[5]) == ks.Ray(vectors[10])


class TestSignInvariance:
    def test_negating_file_vectors_changes_nothing(self, tmp_path, demo):
        flipped_rays = []
        for i, ray in enumerate(demo.rays):
            vec = list(ray.exact)
            if i % 2 == 0:
                vec = [-c for c in vec]
            flipped_rays.append(ks.Ray(vec, name=f"r{i}"))
        problem = ks.ColoringProblem(flipped_rays, demo.bases)
        path = str(tmp_path / "flipped.rays")
        save_rays_file(path, problem)
        back = ks.load_rays_file(path)
        assert len(oracle_enumerate(back)) == len(oracle_enumerate(demo))

    def test_peres_spot_flip(self, peres, tmp_path):
        rays = [
            ks.Ray(
                [-c for c in ray.exact] if i in (0, 5, 40) else list(ray.exact),
                name=f"r{i}",
            )
            for i, ray in enumerate(peres.rays)
        ]
        problem = ks.ColoringProblem(rays, peres.bases)
        assert ks.search_coloring(problem).status == "unsat"

    def test_peres_ray_written_as_a_q2_multiple_stays_unsat(self, peres):
        """A ray listed again as its (1 + sqrt2) multiple, in one of its
        bases, is the same ray: the set stays uncolorable."""
        vectors = [ray.exact for ray in peres.rays]
        vectors.append(tuple(c * ks.Q2(1, 1) for c in vectors[0]))
        bases = [tuple(b) for b in peres.bases]
        last = max(i for i, b in enumerate(bases) if 0 in b)
        bases[last] = tuple(len(vectors) - 1 if r == 0 else r for r in bases[last])
        problem = ks.make_problem(vectors, bases)
        assert (len(problem.rays), problem.bases) == (PERES_RAYS, peres.bases)
        result = ks.search_coloring(problem)
        assert (result.status, result.stats.nodes) == ("unsat", 17)


class TestFwtReduction:
    def test_no_consistent_map_on_ks_set(self, peres):
        # any basis-independent map induces a coloring; the search says none
        # exists, which is the theorem's content at desk scale
        assert ks.search_coloring(peres).status == "unsat"


class TestFiles:
    def test_roundtrip(self, tmp_path, demo):
        path = str(tmp_path / "demo.rays")
        save_rays_file(path, demo)
        back = ks.load_rays_file(path)
        assert len(back.rays) == len(demo.rays)
        assert back.bases == demo.bases

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.rays"
        path.write_text("rays/v0\n")
        with pytest.raises(ValueError, match="rays/v1"):
            ks.load_rays_file(str(path))

    def test_unknown_ray_in_basis(self, tmp_path):
        path = tmp_path / "bad.rays"
        path.write_text("rays/v1\nray a 1 0 0\nbasis a b c\n")
        with pytest.raises(ValueError, match="unknown ray"):
            ks.load_rays_file(str(path))

    @pytest.mark.parametrize("body,message", [
        ("ray a 1 0\n", "line 2: ray needs a name and 3 components"),
        ("ray a 1 0 r3\n", "line 2: cannot parse ray component 'r3'"),
        ("# comment\nray a 0 0 0\n", "line 3: zero vector is not a ray"),
        ("ray a 1 0 0\nbasis a b c\n", "line 3: unknown ray 'b'"),
        ("ray a 1 0 0\nray b 0 1 0\nray c -1 0 0\nbasis a b c\n",
         "basis a b c collapses under deduplication: rays a and c coincide"),
        ("ray x 1 0 0\nray y 0 1 0\nray d 1 1 0\nbasis x y d\n",
         "basis x y d: rays x and d are not orthogonal (inner product 7.071e-01)"),
        ("ray a 1 1 1.41421356\nray b 1 1 -1.41421356\nray c 1 -1 0\nbasis a b c\n",
         "basis a b c: rays a and b are not orthogonal (inner product 1.678e-09)"),
        ("ray a 1e999 1 0\nray b 1 0 0\nray c 0 0 1\nbasis a b c\n",
         "basis a b c: rays a and b are not orthogonal (inner product 1.000e+00)"),
        ("ray a 1 inf 0\n", "line 2: cannot parse ray component 'inf'"),
    ], ids=["short-ray", "bad-component", "zero-vector", "unknown-ray", "collapsed-basis",
            "non-orthogonal", "near-orthogonal-decimals", "huge-coordinate", "infinite"])
    def test_errors_name_the_file(self, tmp_path, body, message):
        path = tmp_path / "bad.rays"
        path.write_text("rays/v1\n" + body)
        with pytest.raises(ValueError) as excinfo:
            ks.load_rays_file(str(path))
        assert str(excinfo.value) == f"{path}: {message}"

    def test_float_rays_file(self, tmp_path):
        path = tmp_path / "f.rays"
        path.write_text(
            "rays/v1\nray a 1.0 0.0 0.0\nray b 0.0 1.0 0.0\nray c 0.0 0.0 1.0\n"
            "basis a b c\n"
        )
        problem = ks.load_rays_file(str(path))
        assert problem.bases == [(0, 1, 2)]
        assert problem.rays[0].exact == (ks.Q2(1), ks.Q2(0), ks.Q2(0))

    @pytest.mark.parametrize("body,rays,status", [
        ("ray a 1e999 0 0\nray b 0 1 0\nray c 0 0 1\nray d 1 0 0\n"
         "basis a b c\nbasis d b c\n", 3, "colored"),
        ("ray a 1 1e-9 0\nray b 1 0 0\nray c 0 1 0\nray d 0 0 1\nbasis b c d\n",
         4, "colored"),
        ("ray a 1 1 r2\nray b 1 1 -r2\nray c 1 -1 0\nbasis a b c\n", 3, "colored"),
        ("ray a 0.70710678 0.70710678 0\nray b 0.70710678 -0.70710678 0\nray c 0 0 1\n"
         "basis a b c\n", 3, "colored"),
        ("ray a 1+2e-3r2 0 0\nray b 0 1.5r2 0\nray c 0 0 1\nbasis a b c\n", 3, "colored"),
    ], ids=["huge-equals-unit", "tiny-tilt-is-distinct", "exact-r2-basis",
            "decimal-orthogonal-as-rationals", "decimal-r2-tokens"])
    def test_decimal_rays_are_exact(self, tmp_path, body, rays, status):
        path = tmp_path / "d.rays"
        path.write_text("rays/v1\n" + body)
        problem = ks.load_rays_file(str(path))
        assert len(problem.rays) == rays
        assert ks.search_coloring(problem).status == status


class TestConstruction:
    def test_stats_frozen(self):
        problem, stats = build_peres_problem()
        assert stats == {
            "peres_directions": 33,
            "orthogonal_dyads": 72,
            "internal_triads": 16,
            "completion_rays": 24,
            "total_rays": 57,
            "total_bases": 40,
        }
        assert ks.search_coloring(problem).status == "unsat"

    def test_internal_triads_alone_are_colorable(self):
        # the documented reason the completions are bundled
        problem, _ = build_peres_problem()
        internal = ks.ColoringProblem(problem.rays[:33], problem.bases[:16])
        assert all(max(b) < 33 for b in internal.bases)
        assert ks.search_coloring(internal).status == "colored"

    @pytest.mark.parametrize("name,build", [
        ("peres33", lambda: build_peres_problem()[0]),
        ("demo_colorable", build_demo_problem),
    ])
    def test_bundled_file_matches_its_builder(self, name, build):
        built, bundled = build(), bundled_problem(name)
        assert [(r.name, r.exact) for r in built.rays] == \
            [(r.name, r.exact) for r in bundled.rays]
        assert all(r.exact is not None for r in bundled.rays)
        assert built.bases == bundled.bases
