"""Description-length estimates, normality batteries, and a
halting-probability enumerator, all relative to the bundled toy machine.

Upper bounds on description length can refute incompressibility claims but
never certify randomness; every routine here states results with exactly
that one-sided strength.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from operator import itemgetter
from typing import Callable, Optional, Sequence

from . import machine as tm
from .sequences import (
    SequenceSource,
    SymbolString,
    _block_symbols,
    _format_symbols,
    _window_counts,
    champernowne,
)

EXACT_SEARCH_MAX_LEN = 24
DEFAULT_Z_THRESHOLD = 4.0


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

    def verify(self, sigma: SymbolString) -> bool:
        """Re-run the witness (8n + 256 steps, n output bits, n = len(sigma)) against sigma."""
        res = tm.run_machine(self.witness, 8 * len(sigma) + 256, len(sigma))
        return res.halted and bytes(res.output) == sigma.array.tobytes()


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


@dataclass(frozen=True)
class OmegaEstimate:
    """Exact dyadic lower bound on the machine's halting probability."""

    lower_bound: Fraction
    search_budget: tuple[int, int]  # (max program length, max steps)
    programs: tuple[tm.Bits, ...] = field(repr=False)


def _z_check(test_name: str, statistic: float, expected: float, z: float,
             parameters: dict, skipped: bool = False) -> dict:
    """One statistical check as the JSON object it is written as, with the
    keys test_name, statistic, expected, z_score, pass, threshold,
    parameters and skipped: pass iff not skipped and |z| <= DEFAULT_Z_THRESHOLD."""
    return {"test_name": test_name, "statistic": statistic, "expected": expected,
            "z_score": z, "pass": not skipped and abs(z) <= DEFAULT_Z_THRESHOLD,
            "threshold": DEFAULT_Z_THRESHOLD, "parameters": parameters, "skipped": skipped}


def _require_base2(sigma: SymbolString) -> None:
    if sigma.alphabet_size != 2:
        raise ValueError("description-length estimates are defined for base-2 strings")


def literal_bound(n: int) -> int:
    """Program length of the verbatim encoding of an n-bit string."""
    return n + 2 * (n + 1).bit_length() - 2 + tm.LITERAL_OVERHEAD_BITS


def _periodic_bound(p: int, n: int) -> int:
    """len(tm.prog_periodic(pattern, n)) for a pattern of p bits, n >= 1:
    HALTAT n (4 + gamma0(n) bits), p OUTs of 4 bits, and JMP back p + 1
    (5 + gamma0(p + 1) bits), where gamma0(v) has 2 * (v + 1).bit_length()
    - 1 bits."""
    return 7 + 4 * p + 2 * ((n + 1).bit_length() + (p + 2).bit_length())


# Champernowne's expansion is tested on this many leading bits before the
# whole prefix is built.
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
    (periodic, constant strings among them as period 1, and
    counter-concatenation a.k.a. Champernowne), and, when a (max_len,
    max_steps) budget is supplied, exhaustive search; a max_len above
    EXACT_SEARCH_MAX_LEN is rejected before any search.  The
    shortest candidate wins, the first in that order on a tie; the literal
    and the periodic emitter, whose programs grow with sigma, are ranked by
    literal_bound and _periodic_bound and built only if they win.  The
    chosen witness is re-run and must reproduce sigma.
    """
    _require_base2(sigma)
    n = len(sigma)
    # (length, method, build): build() makes the program, called for the winner only
    candidates: list[tuple[int, str, Callable[[], tm.Bits]]] = []

    def built(program: tm.Bits, method: str = "generator_encoding") -> None:
        candidates.append((len(program), method, lambda: program))

    if n == 0:
        built(tm.assemble((tm.OP_HALT,)))
    else:
        s = sigma.array.tobytes()
        candidates.append((literal_bound(n), "literal_encoding", partial(tm.prog_literal, s)))
        p = _smallest_period(s)
        if p is not None:
            candidates.append((_periodic_bound(p, n), "generator_encoding",
                               partial(tm.prog_periodic, s[:p], n)))
        for start_at_one in (False, True):
            head = champernowne(2, min(n, _CHAMPERNOWNE_HEAD), start_at_one)
            if head.is_prefix_of(sigma) and champernowne(2, n, start_at_one) == sigma:
                built(tm.prog_champernowne(n, start_at_one))
    if budget is not None:
        found = exact_k_small(sigma, *budget)
        if isinstance(found, ComplexityEstimate):
            built(found.witness, "exhaustive")
    _, method, build = min(candidates, key=itemgetter(0))
    program = build()
    est = ComplexityEstimate(len(program), "upper_bound", program, method)
    if not est.verify(sigma):
        raise AssertionError(f"witness failed to reproduce sigma (method {method})")
    return est


def _search_len(max_len) -> int:
    """max_len as an int, if machine._operand takes it and it is at most
    EXACT_SEARCH_MAX_LEN; else a ValueError."""
    max_len = tm._operand(max_len, None, "max_len")
    if max_len > EXACT_SEARCH_MAX_LEN:
        raise ValueError(f"max_len {max_len} exceeds the tractability cap "
                         f"{EXACT_SEARCH_MAX_LEN}")
    return max_len


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

    The walk is bounded: each new best of length L is answered with send(L
    - 1), so no program that could not beat it is grown.  Every shorter
    program is still run, in the same order, so the witness (the first
    shortest in walk order), its kind and the blocking timeouts are those
    of the unbounded walk.  A send is read as a request for the next entry,
    and an entry is kept only if strictly shorter than the best, so a walk
    that ignores sends gives the same result.

    The last answer is kept, keyed on (sigma's bytes, max_len, max_steps)
    after both budgets are checked, so a refused call is never answered.
    The search is a pure function of that key (the walk is deterministic,
    and a base-2 string's bytes are the string), and both results are
    frozen dataclasses of tuples, so one object can answer every repeat.  cli's komplexity
    asks twice per query, once through k_upper_bound and once for its
    report; the second is this hit.  Once it reads the search from
    k_upper_bound instead, the memo can go.
    """
    _require_base2(sigma)
    return _exact_k_walk(sigma.array.tobytes(), _search_len(max_len),
                         tm._operand(max_steps, None, "max_steps"))


@lru_cache(maxsize=1)
def _exact_k_walk(want: bytes, max_len: int, max_steps: int
                  ) -> ComplexityEstimate | NoProgramCertificate:
    timeouts: list[int] = []
    best: Optional[tm.DomainEntry] = None
    walk = tm.enumerate_domain(max_len, max_steps, output_prefix=want, timeout_log=timeouts)
    bound = None  # sent with the next request: one less than a new best's length
    while True:
        try:
            entry = walk.send(bound)
        except StopIteration:
            break
        bound = None
        if bytes(entry.output) == want and (best is None or len(entry.program) < len(best.program)):
            best = entry
            bound = len(entry.program) - 1
    if best is None:
        return NoProgramCertificate(max_len, max_steps, tuple(sorted(timeouts)))
    found_len = len(best.program)
    blocking = tuple(sorted(c for c in timeouts if c < found_len))
    return ComplexityEstimate(found_len, "upper_bound" if blocking else "exact",
                              best.program, "exhaustive", blocking)


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


def borel_normality_test(sigma: SymbolString, max_block_len: int) -> list[dict]:
    """Every block frequency against k^-l, l = 1..max, passing at |z| <= DEFAULT_Z_THRESHOLD,
    one check dict (see _z_check) per block.

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
        counts = _window_counts(sigma.array, k, ell)
        expected = windows * k ** (-ell)
        for code in range(k**ell):
            pattern = _block_symbols(code, k, ell)
            var = _overlap_count_variance(pattern, k, windows)
            z = float(counts[code] - expected) / math.sqrt(var)
            reports.append(_z_check(
                f"block_frequency[l={ell},block={_format_symbols(pattern, k)}]",
                float(counts[code]), expected, z,
                {"block_len": ell, "windows": windows}))
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
    max_len = _search_len(max_len)
    total = 0  # the sum in units of 2^-max_len
    programs: list[tm.Bits] = []
    for entry in tm.enumerate_domain(max_len, max_steps):
        total += 1 << (max_len - len(entry.program))
        programs.append(entry.program)
    if total >= 1 << max_len:
        raise AssertionError("Kraft sum reached 1: prefix-freeness is broken")
    return OmegaEstimate(Fraction(total, 1 << max_len), (max_len, max_steps), tuple(programs))


def prefix_free_violations(programs: Sequence[tm.Bits]) -> list[tuple[tm.Bits, tm.Bits]]:
    """Pairs (p, q) with p a proper prefix of q; empty for a sound log."""
    present = set(programs)
    return [(q[:k], q) for q in programs for k in range(len(q)) if q[:k] in present]
