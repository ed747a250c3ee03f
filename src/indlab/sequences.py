"""Finite symbol strings and reproducible prefix-consistent sequence sources.

A sequence is never materialized as an infinite object: sources hand out
finite prefixes, and for every deterministic source the prefix of length n
is a prefix of the prefix of length m > n.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

SEQ_SCHEMA = "seq/v1"

SOURCE_KINDS = (
    "born_sampler",
    "champernowne",
    "constant",
    "periodic",
    "file",
    "os_entropy",
)


@dataclass(frozen=True, eq=False)
class SymbolString:
    """Immutable string over {0..k-1} in a read-only array (uint8 if k <= 256, else int64)."""

    alphabet_size: int
    array: np.ndarray

    def __post_init__(self) -> None:
        k = self.alphabet_size
        if k < 2:
            raise ValueError(f"alphabet size must be >= 2, got {k}")
        arr = np.asarray(self.array)
        if arr.ndim != 1 or (len(arr) and not np.issubdtype(arr.dtype, np.integer)):
            raise ValueError(f"symbols must be a 1-d integer sequence, got {arr.dtype} "
                             f"of shape {arr.shape}")
        outside = (arr < 0) | (arr >= k)
        if outside.any():
            raise ValueError(f"symbol {arr[outside][0]} outside alphabet [0, {k})")
        arr = arr.astype(np.uint8 if k <= 256 else np.int64)
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    def __len__(self) -> int:
        return len(self.array)

    def __getitem__(self, i: int) -> int:
        return int(self.array[i])

    def __iter__(self):
        return iter(self.array.tolist())

    def __eq__(self, other) -> bool:
        return (isinstance(other, SymbolString) and len(self) == len(other)
                and self.is_prefix_of(other))

    def is_prefix_of(self, other: "SymbolString") -> bool:
        return (
            self.alphabet_size == other.alphabet_size
            and np.array_equal(other.array[: len(self)], self.array)
        )

    def to_text(self) -> str:
        """Digit string for bases <= 10, comma-separated integers beyond."""
        return _format_symbols(self.array, self.alphabet_size)

    @staticmethod
    def from_text(text: str, alphabet_size: int) -> "SymbolString":
        """Inverse of to_text: ASCII digits, comma-separated beyond base 10."""
        text = text.strip()
        k = alphabet_size
        bad = re.search("[^0-9]" if k <= 10 else "[^0-9,]|[0-9]{19}|^,|,,|,$", text)
        if bad:
            raise ValueError(f"bad base-{k} symbol text {bad.group()!r}")
        if k <= 10:
            return SymbolString(k, np.frombuffer(text.encode(), np.uint8) - ord("0"))
        tokens = text.split(",") if text else []
        return SymbolString(k, np.array(tokens, dtype=str).astype(np.int64))


def bits(text: str) -> SymbolString:
    """Shorthand for a base-2 SymbolString from a literal like "0110"."""
    return SymbolString.from_text(text, 2)


def champernowne_text(base: int, n: int, start_at_one: bool = False) -> str:
    """First n digits of the base-k concatenation 0,1,2,... (or 1,2,3,...)."""
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    chunks: list[str] = []
    total = 0
    t = 1 if start_at_one else 0
    while total < n:
        numeral = _to_base(t, base)
        chunks.append(numeral)
        total += len(numeral)
        t += 1
    return "".join(chunks)[:n]


def champernowne(base: int, n: int, start_at_one: bool = False) -> SymbolString:
    """First n digits of Champernowne's expansion in the given base."""
    if base > 10:
        raise ValueError("champernowne supported for bases 2..10")
    return SymbolString.from_text(champernowne_text(base, n, start_at_one), base)


def champernowne_digit_at(base: int, position: int, start_at_one: bool = False) -> int:
    """Digit at a given position, by positional arithmetic over numeral lengths.

    Independent of the concatenating generator; used as its oracle.
    """
    if position < 0:
        raise ValueError("position must be >= 0")
    t = 1 if start_at_one else 0
    pos = position
    while True:
        numeral = _to_base(t, base)
        if pos < len(numeral):
            return int(numeral[pos], 36)
        pos -= len(numeral)
        t += 1


def _to_base(t: int, base: int) -> str:
    """Numeral of t >= 0 in the given base, digits 0-9 then a-z."""
    if base == 2:
        return format(t, "b")
    if base == 10:
        return str(t)
    out = ""
    while True:
        t, r = divmod(t, base)
        out = "0123456789abcdefghijklmnopqrstuvwxyz"[r] + out
        if t == 0:
            return out


def sample_indices(
    probs: Sequence[float], n: int, seed: int, chunk_size: Optional[int] = None
) -> np.ndarray:
    """n i.i.d. draws from a finite distribution, inverse-CDF over Philox streams.

    Chunked draws use the counter-based key (seed, chunk_index), so the result
    depends only on (probs, n, seed, chunk_size), never on thread count.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or len(p) == 0:
        raise ValueError("probs must be a non-empty 1-d sequence")
    if not np.isfinite(p).all():
        raise ValueError(f"probabilities must be finite, got {p.tolist()}")
    if np.any(p < -1e-12):
        raise ValueError("probabilities must be non-negative")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"probabilities must sum to 1, got {p.sum()!r}")
    if n < 0:
        raise ValueError("n must be >= 0")
    cdf = np.cumsum(p)
    cdf[-1] = 1.0
    if chunk_size is None:
        chunk_size = n
    out = np.empty(n, dtype=np.int64)
    pos = 0
    chunk = 0
    while pos < n:
        take = min(chunk_size, n - pos)
        gen = np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), chunk]))
        u = gen.random(take)
        out[pos : pos + take] = np.searchsorted(cdf, u, side="right")
        pos += take
        chunk += 1
    return out


class SequenceSource:
    """A stateful cursor over a (conceptually infinite) symbol sequence.

    For a fixed (kind, parameters, seed) the emitted prefixes are
    reproducible bit for bit, except for kind "os_entropy".  Requesting n
    then m > n symbols yields an extension of the first request.  Sources
    are not shareable across threads; use clone() to parallelize.
    """

    def __init__(self, kind: str, alphabet_size: int = 2, seed: int = 0, **parameters):
        if kind not in SOURCE_KINDS:
            raise ValueError(f"unknown source kind {kind!r}; expected one of {SOURCE_KINDS}")
        if alphabet_size < 2:
            raise ValueError("alphabet_size must be >= 2")
        self.kind = kind
        self.alphabet_size = alphabet_size
        self.seed = seed
        self.parameters = dict(parameters)
        self._cache = np.empty(0, dtype=np.int64)
        self._validate()

    def _validate(self) -> None:
        p = self.parameters
        if self.kind == "constant":
            SymbolString(self.alphabet_size, (p.setdefault("symbol", 0),))
        elif self.kind == "periodic":
            p["pattern"] = tuple(SymbolString(self.alphabet_size, p.get("pattern", ())))
            if not p["pattern"]:
                raise ValueError("periodic source requires a non-empty pattern")
        elif self.kind == "born_sampler":
            probs = p.setdefault("probs", [0.5, 0.5])
            if len(probs) > self.alphabet_size:
                raise ValueError("more outcomes than alphabet symbols")
        elif self.kind == "champernowne":
            p.setdefault("start_at_one", False)
        elif self.kind == "file":
            if "path" not in p:
                raise ValueError("file source requires path=")

    @classmethod
    def of_file(cls, path: str, sigma: SymbolString) -> "SequenceSource":
        """The "file" source of path, serving sigma, the symbols already read
        from it, without reading the file again."""
        source = cls("file", alphabet_size=sigma.alphabet_size, path=path)
        source._cache = sigma.array
        return source

    def clone(self) -> "SequenceSource":
        """Fresh cursor with the same configuration (and seed)."""
        return SequenceSource(self.kind, self.alphabet_size, self.seed, **self.parameters)

    def prefix(self, n: int) -> SymbolString:
        """The first n symbols of the sequence."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        if n > len(self._cache):
            self._extend(n)
        return SymbolString(self.alphabet_size, self._cache[:n])

    def _extend(self, n: int) -> None:
        k = self.alphabet_size
        p = self.parameters
        if self.kind == "constant":
            self._cache = np.full(n, p["symbol"], dtype=np.int64)
        elif self.kind == "periodic":
            self._cache = np.resize(np.array(p["pattern"], dtype=np.int64), n)
        elif self.kind == "champernowne":
            raw = np.frombuffer(champernowne_text(k, n, p["start_at_one"]).encode(), np.uint8)
            self._cache = np.where(raw >= ord("a"), raw - (ord("a") - 10), raw - ord("0"))
        elif self.kind == "born_sampler":
            self._cache = sample_indices(p["probs"], n, self.seed, p.get("chunk_size"))
        elif self.kind == "file":
            sigma = read_sequence_file(p["path"])
            if sigma.alphabet_size != k:
                raise ValueError(
                    f"file alphabet {sigma.alphabet_size} != source alphabet {k}"
                )
            if n > len(sigma):
                raise ValueError(f"file holds {len(sigma)} symbols, {n} requested")
            self._cache = sigma.array[:n]
        elif self.kind == "os_entropy":
            self._cache = np.append(self._cache, os_entropy_symbols(k, n - len(self._cache)))

    def __repr__(self) -> str:
        return f"SequenceSource({self.kind!r}, k={self.alphabet_size}, seed={self.seed})"


def os_entropy_symbols(k: int, n: int) -> np.ndarray:
    """n uniform symbols in [0, k) from OS entropy via rejection sampling on bytes."""
    if k > 256:
        raise ValueError("os_entropy supports alphabets up to 256 symbols")
    limit = 256 - (256 % k)
    out = np.empty(n, dtype=np.int64)
    filled = 0
    try:
        while filled < n:
            raw = np.frombuffer(os.urandom(2 * (n - filled) + 64), dtype=np.uint8)
            good = raw[raw < limit].astype(np.int64) % k
            take = min(len(good), n - filled)
            out[filled : filled + take] = good[:take]
            filled += take
    except (OSError, NotImplementedError) as exc:
        raise OSError(f"OS entropy unavailable: {exc}") from exc
    return out


def block_frequencies(
    sigma: SymbolString, block_len: int, disjoint: bool = False
) -> dict[str, float]:
    """Relative frequency of each length-l block.

    Overlapping windows by default (the normality convention); disjoint
    blocks on request.  All k^l blocks are keyed when that table is small,
    otherwise only observed blocks appear.
    """
    if block_len < 1:
        raise ValueError(f"block length must be >= 1, got {block_len}")
    if block_len > len(sigma):
        raise ValueError(f"block length {block_len} exceeds string length {len(sigma)}")
    k = sigma.alphabet_size
    counts = _window_counts(sigma.array, k, block_len, disjoint)
    total = counts.sum()
    codes = range(k**block_len) if k**block_len <= 65536 else np.nonzero(counts)[0]
    return {
        _format_symbols(_block_symbols(int(code), k, block_len), k): counts[code] / total
        for code in codes
    }


def _window_counts(arr: np.ndarray, k: int, block_len: int, disjoint: bool) -> np.ndarray:
    """Occurrence counts of every length-l block, encoded base k."""
    n = len(arr)
    codes = np.zeros(n - block_len + 1, dtype=np.int64)
    for j in range(block_len):
        codes = codes * k + arr[j : n - block_len + 1 + j]
    if disjoint:
        codes = codes[::block_len]
    return np.bincount(codes, minlength=k**block_len)


def _block_symbols(code: int, k: int, block_len: int) -> tuple[int, ...]:
    """The length-l block whose base-k code is code (inverse of _window_counts)."""
    syms = []
    for _ in range(block_len):
        code, r = divmod(code, k)
        syms.append(r)
    return tuple(reversed(syms))


def _format_symbols(symbols: Sequence[int], k: int) -> str:
    """The SymbolString.to_text form of any base-k symbol sequence."""
    if k <= 10:
        return (np.asarray(symbols, dtype=np.uint8) + ord("0")).tobytes().decode()
    return ",".join(map(str, np.asarray(symbols).tolist()))


def write_sequence_file(path: str, sigma: SymbolString) -> None:
    with open(path, "w") as f:
        f.write(f"{SEQ_SCHEMA} k={sigma.alphabet_size} n={len(sigma)}\n")
        f.write(sigma.to_text())
        f.write("\n")


def read_sequence_file(path: str) -> SymbolString:
    with open(path) as f:
        header = f.readline().strip()
        body = f.read()
    parts = header.split()
    if not parts or parts[0] != SEQ_SCHEMA:
        raise ValueError(f"not a {SEQ_SCHEMA} file: header {header!r}")
    fields = dict(p.partition("=")[::2] for p in parts[1:])
    for name in ("k", "n"):
        if not re.fullmatch("[0-9]+", fields.get(name, "")):
            raise ValueError(f"{path}: {SEQ_SCHEMA} header field {name}= is missing or "
                             f"not a non-negative integer: header {header!r}")
    k = int(fields["k"])
    n = int(fields["n"])
    text = "".join(body.split()) if k <= 10 else ",".join(body.split())
    sigma = SymbolString.from_text(text, k)
    if len(sigma) != n:
        raise ValueError(f"header says n={n} but file holds {len(sigma)} symbols")
    return sigma
