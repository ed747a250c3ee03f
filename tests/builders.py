"""Builders that only tests call: base-2 literals, base-k numerals and
the concatenated Champernowne text, the gamma0 code length, the hv model
writer, the unbounded exact-K search, a counter of domain walks and the
value of one deterministic Bell strategy.  Test programs are written with
machine.assemble."""

from fractions import Fraction

from indlab import hv
from indlab import machine as tm
from indlab import randomness as rl
from indlab import sequences as sq


def bits(text: str) -> sq.SymbolString:
    """A base-2 SymbolString from a literal like "0110"."""
    return sq.SymbolString.from_text(text, 2)


def numeral(t: int, base: int) -> str:
    """Numeral of t >= 0 in the given base, digits 0-9 then a-z."""
    out = ""
    while True:
        t, r = divmod(t, base)
        out = "0123456789abcdefghijklmnopqrstuvwxyz"[r] + out
        if t == 0:
            return out


def champernowne_text(base: int, n: int, start_at_one: bool = False) -> str:
    """First n digits of the base-k concatenation 0,1,2,... (or 1,2,3,...),
    numeral by numeral: the oracle for sequences.champernowne."""
    chunks: list[str] = []
    total = 0
    t = 1 if start_at_one else 0
    while total < n:
        chunks.append(numeral(t, base))
        total += len(chunks[-1])
        t += 1
    return "".join(chunks)[:n]


def gamma0_length(n: int) -> int:
    return 2 * (n + 1).bit_length() - 1


def save_model(path: str, model: hv.HVModel) -> None:
    with open(path, "w") as f:
        f.write(hv.model_to_json(model))
        f.write("\n")


def unbounded_exact_k_small(sigma, max_len, max_steps):
    """Reference exact_k_small: the loop that walked every program up to
    max_len, with no send, before the search bounded its walk."""
    want = tuple(sigma)
    timeouts: list[int] = []
    best = None
    for entry in tm.enumerate_domain(
        max_len, max_steps, output_prefix=want, timeout_log=timeouts
    ):
        if entry.output == want:
            if best is None or len(entry.program) < len(best.program):
                best = entry
    if best is None:
        return rl.NoProgramCertificate(max_len, max_steps, tuple(sorted(timeouts)))
    found_len = len(best.program)
    blocking = tuple(sorted(c for c in timeouts if c < found_len))
    return rl.ComplexityEstimate(found_len, "upper_bound" if blocking else "exact",
                                 best.program, "exhaustive", blocking)


def count_walks(monkeypatch) -> list:
    """Wrap machine.enumerate_domain so that each walk started appends its
    arguments to the list returned; the wrapper forwards send, so a bounded
    search walks as it would unwrapped."""
    walk = tm.enumerate_domain
    walks: list = []

    def counting(*args, **kwargs):
        walks.append(args)
        return (yield from walk(*args, **kwargs))

    monkeypatch.setattr(tm, "enumerate_domain", counting)
    return walks


def strategy_value(strategy, functional, settings) -> Fraction:
    """The functional on one deterministic strategy: the sum of the
    coefficients of the terms whose two responses differ.  The oracle for
    bell.local_bound."""
    total = Fraction(0)
    for coeff, a, b in functional.terms:
        if strategy.response_l[settings.index(a)] != strategy.response_r[settings.index(b)]:
            total += coeff
    return total
