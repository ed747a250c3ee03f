from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from indlab import ks

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


@pytest.fixture(scope="module")
def peres():
    return ks.bundled_problem("peres33")


@pytest.fixture(scope="module")
def demo():
    return ks.bundled_problem("demo_colorable")


fractions = st.fractions(min_value=-8, max_value=8, max_denominator=6)


class TestQ2:
    @given(fractions, fractions)
    def test_sign_matches_float(self, p, q):
        x = ks.Q2(p, q)
        f = float(x)
        if abs(f) > 1e-12:
            assert x.sign() == (1 if f > 0 else -1)
        else:
            assert (x.sign() == 0) == (p == 0 and q == 0)

    @given(fractions, fractions, fractions, fractions)
    def test_field_operations(self, p1, q1, p2, q2):
        a, b = ks.Q2(p1, q1), ks.Q2(p2, q2)
        assert float(a + b) == pytest.approx(float(a) + float(b), abs=1e-9)
        assert float(a * b) == pytest.approx(float(a) * float(b), abs=1e-9)
        assert float(a - b) == pytest.approx(float(a) - float(b), abs=1e-9)

    @given(fractions, fractions)
    def test_token_roundtrip(self, p, q):
        x = ks.Q2(p, q)
        back = ks.parse_component(x.token())
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
        ],
    )
    def test_parse_forms(self, token, p, q):
        x = ks.parse_component(token)
        assert x == ks.Q2(p, q)

    def test_parse_float_fallback(self):
        assert ks.parse_component("0.5") == 0.5

    def test_parse_garbage(self):
        with pytest.raises(ValueError):
            ks.parse_component("r3")


class TestRay:
    def test_sign_identification(self):
        a = ks.Ray.from_components([ks.Q2(1), ks.Q2(-1), ks.Q2(0)])
        b = ks.Ray.from_components([ks.Q2(-1), ks.Q2(1), ks.Q2(0)])
        assert a.same_ray(b)
        assert a.exact == b.exact

    def test_canonical_idempotent(self):
        a = ks.Ray.from_components([ks.Q2(2), ks.Q2(0), ks.Q2(-2)])
        b = ks.Ray.from_components(list(a.exact))
        assert a.exact == b.exact

    def test_unit_norm(self):
        a = ks.Ray.from_components([ks.Q2(1), ks.Q2(1), ks.Q2(0, 1)])
        assert sum(x * x for x in a.direction) == pytest.approx(1.0, abs=1e-12)

    def test_sqrt2_multiple_collapses(self):
        a = ks.Ray.from_components([ks.Q2(0, 1), ks.Q2(0, 1), ks.Q2(0)])
        b = ks.Ray.from_components([ks.Q2(1), ks.Q2(1), ks.Q2(0)])
        assert a.same_ray(b)

    def test_float_rays(self):
        a = ks.Ray.from_components([0.6, 0.8, 0.0])
        b = ks.Ray.from_components([-0.6, -0.8, 0.0])
        assert a.same_ray(b)
        assert a.orthogonal_to(ks.Ray.from_components([0.8, -0.6, 0.0]))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            ks.Ray.from_components([0.0, 0.0, 0.0])


class TestValidation:
    def test_standard_basis_valid(self):
        problem = ks.make_problem(
            [[ks.Q2(1), ks.Q2(0), ks.Q2(0)],
             [ks.Q2(0), ks.Q2(1), ks.Q2(0)],
             [ks.Q2(0), ks.Q2(0), ks.Q2(1)]],
            [(0, 1, 2)],
        )
        report = ks.validate_problem(problem)
        assert report.ok

    def test_non_orthogonal_diagnosed(self):
        problem = ks.ColoringProblem(
            [ks.Ray.from_components(v) for v in
             ([1.0, 0.0, 0.0], [0.1, 0.995, 0.0], [0.0, 0.0, 1.0])],
            [(0, 1, 2)],
        )
        report = ks.validate_problem(problem)
        assert not report.ok
        assert any("inner product" in issue.detail for issue in report.issues)

    def test_bundled_peres_counts(self, peres):
        report = ks.validate_problem(peres)
        assert report.ok
        assert report.ray_count == PERES_RAYS
        assert report.basis_count == PERES_BASES

    def test_missing_ray_reference_diagnosed(self):
        rays = [ks.Ray.from_components(v) for v in ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])]
        report = ks.validate_problem(ks.ColoringProblem(rays, [(0, 1, 7), (-1, 0, 1)]))
        assert not report.ok
        assert [issue.detail for issue in report.issues] == [
            "basis 0 references missing ray 7", "basis 1 references missing ray -1"]

    def test_duplicate_detection(self):
        rays = [ks.Ray.from_components([1.0, 0.0, 0.0]),
                ks.Ray.from_components([-1.0, 0.0, 0.0])]
        report = ks.validate_problem(ks.ColoringProblem(rays, []))
        assert any(issue.kind == "duplicate" for issue in report.issues)


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

    def test_oracle_cap(self, peres):
        with pytest.raises(ValueError, match="20"):
            oracle_enumerate(peres)


class TestSignInvariance:
    def test_negating_file_vectors_changes_nothing(self, tmp_path, demo):
        flipped_rays = []
        for i, ray in enumerate(demo.rays):
            vec = list(ray.exact)
            if i % 2 == 0:
                vec = [-c for c in vec]
            flipped_rays.append(ks.Ray.from_components(vec, name=f"r{i}"))
        problem = ks.ColoringProblem(flipped_rays, demo.bases)
        path = str(tmp_path / "flipped.rays")
        ks.save_rays_file(path, problem)
        back = ks.load_rays_file(path)
        assert ks.validate_problem(back).ok
        assert len(oracle_enumerate(back)) == len(oracle_enumerate(demo))

    def test_peres_spot_flip(self, peres, tmp_path):
        rays = [
            ks.Ray.from_components(
                [-c for c in ray.exact] if i in (0, 5, 40) else list(ray.exact),
                name=f"r{i}",
            )
            for i, ray in enumerate(peres.rays)
        ]
        problem = ks.ColoringProblem(rays, peres.bases)
        assert ks.search_coloring(problem).status == "unsat"


class TestFwtReduction:
    def test_valid_coloring_induces_passing_map(self, demo):
        coloring = ks.search_coloring(demo).assignment
        value_map = ks.coloring_to_value_map(demo, coloring)
        report = ks.fwt_reduction_check(demo, value_map)
        assert report.passed
        assert report.induced_coloring == coloring

    def test_outcome_tuples_in_o_set(self, demo):
        coloring = ks.search_coloring(demo).assignment
        for t in ks.outcome_tuples(demo, coloring):
            assert sorted(t) == [0, 1, 1]

    def test_basis_dependent_value_reported(self, demo):
        coloring = ks.search_coloring(demo).assignment
        value_map = ks.coloring_to_value_map(demo, coloring)
        # demo ray 0 (x) sits in bases 0 and 1: give it conflicting outcomes
        positions = [
            (bi, pos)
            for bi, basis in enumerate(demo.bases)
            for pos, r in enumerate(basis)
            if r == 0
        ]
        assert len(positions) >= 2
        value_map[positions[0]] = 0
        value_map[positions[1]] = 1
        report = ks.fwt_reduction_check(demo, value_map)
        assert not report.consistent
        assert any("ray 0" in v for v in report.violations)

    def test_partial_map_rejected(self, demo):
        value_map = ks.coloring_to_value_map(demo, ks.search_coloring(demo).assignment)
        value_map.pop((0, 0))
        with pytest.raises(ValueError, match="partial"):
            ks.fwt_reduction_check(demo, value_map)

    def test_no_consistent_map_on_ks_set(self, peres):
        # any basis-independent map induces a coloring; the search says none
        # exists, which is the theorem's content at desk scale
        assert ks.search_coloring(peres).status == "unsat"


class TestFiles:
    def test_roundtrip(self, tmp_path, demo):
        path = str(tmp_path / "demo.rays")
        ks.save_rays_file(path, demo)
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

    def test_data_dir_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ks.DATA_DIR_ENV, str(tmp_path))
        with pytest.raises(FileNotFoundError):
            ks.bundled_path("peres33.rays")

    def test_float_rays_file(self, tmp_path):
        path = tmp_path / "f.rays"
        path.write_text(
            "rays/v1\nray a 1.0 0.0 0.0\nray b 0.0 1.0 0.0\nray c 0.0 0.0 1.0\n"
            "basis a b c\n"
        )
        problem = ks.load_rays_file(str(path))
        assert ks.validate_problem(problem).ok
        assert problem.rays[0].exact is None


class TestConstruction:
    def test_stats_frozen(self):
        problem, stats = ks.build_peres_problem()
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
        problem, _ = ks.build_peres_problem()
        internal = ks.ColoringProblem(problem.rays[:33], problem.bases[:16])
        assert all(max(b) < 33 for b in internal.bases)
        assert ks.search_coloring(internal).status == "colored"

    @pytest.mark.parametrize("name,build", [
        ("peres33", lambda: ks.build_peres_problem()[0]),
        ("demo_colorable", ks.build_demo_problem),
    ])
    def test_bundled_file_matches_its_builder(self, name, build):
        built, bundled = build(), ks.bundled_problem(name)
        assert [(r.name, r.exact) for r in built.rays] == \
            [(r.name, r.exact) for r in bundled.rays]
        assert all(r.exact is not None for r in bundled.rays)
        assert built.bases == bundled.bases
