"""Description-length estimates, counting bounds, normality batteries, and a
halting-probability enumerator, all relative to the bundled toy machine.

Upper bounds on description length can refute incompressibility claims but
never certify randomness; every routine here states results with exactly
that one-sided strength.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from . import machine as tm
from .sequences import (
    SequenceSource,
    SymbolString,
    _block_symbols,
    _format_symbols,
    _window_counts,
    champernowne_text,
)

EXACT_SEARCH_MAX_LEN = 24
DEFAULT_Z_THRESHOLD = 4.0
COUNT_MAX_N = 14


@dataclass(frozen=True)
class ComplexityEstimate:
    """A witnessed description-length value for one string.

    kind "exact" asserts that every shorter program was resolved
    (halt, provable divergence, or output mismatch) within the step budget;
    a single unresolved timeout below the found length degrades the claim
    to "upper_bound".  An exhaustive upper bound lists, sorted, the
    bits_consumed of the step-budget timeouts that block the exact claim.
    """

    value: int
    kind: str  # "exact" | "upper_bound"
    witness: tm.Bits
    method: str  # "exhaustive" | "literal_encoding" | "generator_encoding"
    unresolved_bits_consumed: tuple[int, ...] = ()

    def verify(self, sigma: SymbolString, max_steps: Optional[int] = None) -> bool:
        """Re-run the witness and compare with sigma."""
        steps = max_steps if max_steps is not None else 8 * len(sigma) + 256
        res = tm.run_machine(self.witness, steps)
        return res.halted and res.output == tuple(sigma)


@dataclass(frozen=True)
class NoProgramCertificate:
    """No program of length <= max_len produced sigma within the step budget.

    A lower-bound certificate relative to this machine and this budget; it
    says nothing about larger budgets.  unresolved_bits_consumed lists,
    sorted, the bits_consumed of the branches that exhausted the step
    budget: any of them might still produce sigma.
    """

    max_len: int
    max_steps: int
    unresolved_bits_consumed: tuple[int, ...]

    @property
    def unresolved_timeouts(self) -> int:
        return len(self.unresolved_bits_consumed)


@dataclass(frozen=True)
class OmegaEstimate:
    """Exact dyadic lower bound on the machine's halting probability."""

    lower_bound: Fraction
    programs_found: int
    search_budget: tuple[int, int]  # (max program length, max steps)
    programs: tuple[tm.Bits, ...] = field(repr=False, default=())


@dataclass(frozen=True)
class TestReport:
    """One statistical check: pass iff |z| <= threshold (unless skipped)."""

    test_name: str
    statistic: float
    expected: float
    z_score: float
    passed: bool
    threshold: float = DEFAULT_Z_THRESHOLD
    parameters: dict = field(default_factory=dict)
    skipped: bool = False

    def to_dict(self) -> dict:
        return {
            "test_name": self.test_name,
            "statistic": self.statistic,
            "expected": self.expected,
            "z_score": self.z_score,
            "pass": self.passed,
            "threshold": self.threshold,
            "parameters": self.parameters,
            "skipped": self.skipped,
        }


def _require_base2(sigma: SymbolString) -> None:
    if sigma.alphabet_size != 2:
        raise ValueError("description-length estimates are defined for base-2 strings")


def literal_bound(n: int) -> int:
    """Program length of the verbatim encoding of an n-bit string."""
    return n + 2 * (n + 1).bit_length() - 2 + tm.LITERAL_OVERHEAD_BITS


# Champernowne's expansion is tested on this many leading bits before the
# whole text is built.
_CHAMPERNOWNE_HEAD = 64


def _smallest_period(s: bytes) -> Optional[int]:
    """The smallest period p <= n // 2 of s, or None; p is a period when
    s[i] == s[i - p] for every i >= p.

    One find and one comparison.  Let h be the first ceil(n/2) symbols and
    q the first position >= 1 where h occurs (q <= n // 2, as h must fit).
    Every period p <= n // 2 is such a position, so q <= p, and then q is a
    period too: s[:q + |h|] has the periods q and p, and p - gcd(p, q) <=
    |h|, so by Fine and Wilf it has the period g = gcd(p, q); that stretch
    covers s[:p], so s, with period p, has the period g, and hence q, a
    multiple of g.  So if q is a period it is the smallest, and if it is
    not, no p <= n // 2 is.
    """
    n = len(s)
    q = s.find(s[: n - n // 2], 1)
    if q > 0 and s[q:] == s[: n - q]:
        return q
    return None


def k_upper_bound(
    sigma: SymbolString, budget: Optional[tuple[int, int]] = None
) -> ComplexityEstimate:
    """Best witnessed upper bound on the description length of sigma.

    Tries the literal encoding, generator encodings for recognized structure
    (constant, periodic, counter-concatenation a.k.a. Champernowne), and,
    when a (max_len, max_steps) budget is supplied, exhaustive search; a
    max_len above EXACT_SEARCH_MAX_LEN is rejected before any search.  The
    shortest candidate wins, the first in that order on a tie; the literal
    is ranked by literal_bound and built only if it wins.  The chosen
    witness is re-run and must reproduce sigma.
    """
    _require_base2(sigma)
    n = len(sigma)
    # (program, method); program None stands for the literal encoding
    candidates: list[tuple[Optional[tm.Bits], str]] = []
    if n == 0:
        candidates.append((tm.prog_halt(), "generator_encoding"))
    else:
        s = sigma.array.tobytes()
        candidates.append((None, "literal_encoding"))
        if s.count(s[:1]) == n:
            candidates.append((tm.prog_constant(s[0], n), "generator_encoding"))
        else:
            p = _smallest_period(s)
            if p is not None:
                candidates.append((tm.prog_periodic(s[:p], n), "generator_encoding"))
        text = sigma.to_text()
        for start_at_one in (False, True):
            head = champernowne_text(2, min(n, _CHAMPERNOWNE_HEAD), start_at_one)
            if text.startswith(head) and champernowne_text(2, n, start_at_one) == text:
                candidates.append(
                    (tm.prog_champernowne(n, start_at_one), "generator_encoding")
                )
    if budget is not None:
        found = exact_k_small(sigma, *budget)
        if isinstance(found, ComplexityEstimate):
            candidates.append((found.witness, "exhaustive"))
    program, method = min(
        candidates, key=lambda c: literal_bound(n) if c[0] is None else len(c[0]))
    if program is None:
        program = tm.prog_literal(s)
    est = ComplexityEstimate(len(program), "upper_bound", program, method)
    if not est.verify(sigma):
        raise AssertionError(f"witness failed to reproduce sigma (method {method})")
    return est


def exact_k_small(
    sigma: SymbolString,
    max_len: int,
    max_steps: int,
) -> ComplexityEstimate | NoProgramCertificate:
    """Exhaustive search for the shortest program producing sigma.

    Returns an exact value only when every strictly shorter program was
    resolved within the step budget; unresolved timeouts degrade the result
    to an upper bound.  When nothing is found the certificate records that
    no program of length <= max_len produced sigma within the budget.
    """
    _require_base2(sigma)
    if max_len > EXACT_SEARCH_MAX_LEN:
        raise ValueError(f"max_len {max_len} exceeds the tractability cap "
                         f"{EXACT_SEARCH_MAX_LEN}")
    want = tuple(sigma)
    timeouts: list[int] = []
    best: Optional[tm.DomainEntry] = None
    for entry in tm.enumerate_domain(
        max_len, max_steps, output_prefix=want, timeout_log=timeouts
    ):
        if entry.output == want:
            if best is None or len(entry.program) < len(best.program):
                best = entry
    if best is None:
        return NoProgramCertificate(max_len, max_steps, tuple(sorted(timeouts)))
    found_len = len(best.program)
    blocking = tuple(sorted(c for c in timeouts if c < found_len))
    return ComplexityEstimate(found_len, "upper_bound" if blocking else "exact",
                              best.program, "exhaustive", blocking)


@dataclass(frozen=True)
class IncompressibleCount:
    """Budget-limited census of c-incompressible strings of one length."""

    n: int
    c: int
    count: int
    paper_bound: int
    compressible_found: int


def count_c_incompressible(
    n: int, c: int, max_steps: int = 4096
) -> IncompressibleCount:
    """Count length-n strings whose budget-limited K is >= n - c.

    The budget-limited K only overestimates, so count >= 2^n - 2^(n-c+1) + 1
    is safe to assert against the returned paper_bound.
    """
    if n > COUNT_MAX_N:
        raise ValueError(f"n {n} exceeds cap {COUNT_MAX_N}")
    if n < 1 or c < 0:
        raise ValueError("need n >= 1 and c >= 0")
    compressible: set[tm.Bits] = set()
    max_len = n - c - 1
    if max_len >= 0:
        for entry in tm.enumerate_domain(max_len, max_steps, output_limit=n + 1):
            if len(entry.output) == n:
                compressible.add(entry.output)
    count = 2**n - len(compressible)
    bound = 2**n - 2 ** (n - c + 1) + 1 if n - c + 1 >= 0 else 2**n
    return IncompressibleCount(n, c, count, bound, len(compressible))


@dataclass(frozen=True)
class MarginPoint:
    n: int
    k_upper: int
    margin: int
    method: str


def levin_chaitin_margin(x: SymbolString, checkpoints: Sequence[int]) -> list[MarginPoint]:
    """Series of K_upper(x_|n) - n at the given checkpoints, each in [0, len(x)].

    A strongly negative margin refutes 1-randomness relative to this
    machine (see incompressibility_flag); a positive margin confirms nothing.
    """
    cps = list(checkpoints)
    if cps != sorted(cps):
        raise ValueError("checkpoints must be ascending")
    if cps and (cps[0] < 0 or cps[-1] > len(x)):
        raise ValueError(f"checkpoints must lie in [0, {len(x)}], got {cps}")
    points = []
    for n in cps:
        est = k_upper_bound(SymbolString(x.alphabet_size, x.array[:n]))
        points.append(MarginPoint(n, est.value, est.value - n, est.method))
    return points


def _overlap_count_variance(pattern: Sequence[int], k: int, windows: int) -> float:
    """Variance of the overlapping occurrence count of a pattern in an
    i.i.d. uniform base-k string, via the pattern's autocorrelation."""
    ell = len(pattern)
    p = k ** (-ell)
    var = windows * p * (1.0 - p)
    for d in range(1, ell):
        overlap = tuple(pattern[d:]) == tuple(pattern[: ell - d])
        cov = (p * k ** (-d) if overlap else 0.0) - p * p
        var += 2.0 * (windows - d) * cov
    return var


def borel_normality_test(
    sigma: SymbolString,
    max_block_len: int,
    z_threshold: float = DEFAULT_Z_THRESHOLD,
) -> list[TestReport]:
    """z-scored comparison of every block frequency with k^-l, l = 1..max.

    Uses the exact variance of overlapping window counts, so the scores are
    honest N(0,1) statistics for a truly i.i.d. uniform source.
    """
    k = sigma.alphabet_size
    minimum = 100 * k**max_block_len
    if len(sigma) < minimum:
        raise ValueError(
            f"need at least {minimum} symbols for blocks up to {max_block_len}, "
            f"got {len(sigma)}"
        )
    reports = []
    for ell in range(1, max_block_len + 1):
        windows = len(sigma) - ell + 1
        counts = _window_counts(sigma.array, k, ell, disjoint=False)
        expected = windows * k ** (-ell)
        for code in range(k**ell):
            pattern = _block_symbols(code, k, ell)
            var = _overlap_count_variance(pattern, k, windows)
            z = float(counts[code] - expected) / math.sqrt(var)
            reports.append(
                TestReport(
                    test_name=f"block_frequency[l={ell},block={_format_symbols(pattern, k)}]",
                    statistic=float(counts[code]),
                    expected=expected,
                    z_score=float(z),
                    passed=abs(z) <= z_threshold,
                    threshold=z_threshold,
                    parameters={"block_len": ell, "windows": windows},
                )
            )
    return reports


def monkey_search(
    target: SymbolString, source: SequenceSource, horizon: int
) -> list[int]:
    """All overlapping occurrence positions of target within the horizon."""
    if horizon < len(target):
        raise ValueError(f"horizon {horizon} shorter than target {len(target)}")
    if target.alphabet_size != source.alphabet_size:
        raise ValueError("target and source alphabets differ")
    if len(target) == 0:
        raise ValueError("target must be non-empty")
    hay = source.prefix(horizon).array
    needle = target.array
    starts = (hay[: len(hay) - len(needle) + 1] == needle[0]).nonzero()[0]
    for j in range(1, len(needle)):
        starts = starts[hay[starts + j] == needle[j]]
    return starts.tolist()


def omega_lower_bound(max_len: int, max_steps: int) -> OmegaEstimate:
    """Sum of 2^-|program| over every halting program of length <= max_len.

    Each program is the exact bit prefix consumed at halt and is counted
    once; the sum is exact dyadic arithmetic and, by the Kraft inequality
    for a prefix-free set, strictly below 1 at any finite budget.
    """
    if max_len > EXACT_SEARCH_MAX_LEN:
        raise ValueError(f"max_len {max_len} exceeds cap {EXACT_SEARCH_MAX_LEN}")
    total = Fraction(0)
    programs: list[tm.Bits] = []
    for entry in tm.enumerate_domain(max_len, max_steps):
        total += Fraction(1, 2 ** len(entry.program))
        programs.append(entry.program)
    if total >= 1:
        raise AssertionError("Kraft sum reached 1: prefix-freeness is broken")
    return OmegaEstimate(total, len(programs), (max_len, max_steps), tuple(programs))


def prefix_free_violations(programs: Sequence[tm.Bits]) -> list[tuple[tm.Bits, tm.Bits]]:
    """Pairs (p, q) with p a proper prefix of q; empty for a sound log."""
    present = set(programs)
    return [(q[:k], q) for q in programs for k in range(len(q)) if q[:k] in present]


def incompressibility_flag(margin_points: Sequence[MarginPoint], c: int) -> Optional[str]:
    """The exact one-sided claim an upper bound supports, or None.

    The claim is made when some checkpoint has K_upper < n - c, that is a
    margin below -c; a margin of exactly -c is not flagged.
    """
    for pt in margin_points:
        if pt.margin < -c:
            return (
                f"not {c}-incompressible relative to this machine: "
                f"K_upper(x|{pt.n}) = {pt.k_upper} < {pt.n} - {c}"
            )
    return None
