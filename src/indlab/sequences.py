"""Finite symbol strings and reproducible prefix-consistent sequence sources.

A sequence is never materialized as an infinite object: a source computes
the finite prefix it is asked for, and for every deterministic source the
prefix of length n is a prefix of the prefix of length m > n.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from numbers import Real
from typing import Sequence

import numpy as np

SEQ_SCHEMA = "seq/v1"

# The keywords each source kind reads, with their defaults; a file source
# has no default path.  A constant sequence is the periodic one of a
# one-symbol pattern.
SOURCE_KEYWORDS = {
    "born": {"probs": (0.5, 0.5), "seed": 0},
    "champernowne": {"start_at_one": False},
    "periodic": {"pattern": (0, 1)},
    "file": {"path": None},
    "os": {},
}
# The largest alphabet of a kind that has one: digits 0-9 then a-z; a byte a symbol
MAX_ALPHABET = {"champernowne": 36, "os": 256}


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


def champernowne_text(base: int, n: int, start_at_one: bool = False) -> str:
    """First n digits of the base-k concatenation 0,1,2,... (or 1,2,3,...)."""
    if not 2 <= base <= MAX_ALPHABET["champernowne"]:
        raise ValueError(f"champernowne base must be in 2..36 (digits 0-9 then a-z), got {base}")
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
    """First n digits of Champernowne's expansion in the given base, 2..36."""
    raw = np.frombuffer(champernowne_text(base, n, start_at_one).encode(), np.uint8)
    return SymbolString(base, np.where(raw >= ord("a"), raw - (ord("a") - 10), raw - ord("0")))


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


def distribution(values: Sequence[float], what: str) -> tuple[float, ...]:
    """values as a tuple of floats if they are one or more finite numbers >= 0 whose
    math.fsum is within 1e-9 of 1; otherwise a ValueError naming what and the values."""
    p = [float(v) if isinstance(v, Real) else v for v in values]
    if not (p and all(isinstance(x, float) and math.isfinite(x) and x >= 0 for x in p)
            and abs(math.fsum(p) - 1.0) <= 1e-9):
        raise ValueError(f"{what} must be finite, non-negative and sum to 1, got {p}")
    return tuple(p)


def sample_indices(probs: Sequence[float], n: int, seed: int) -> np.ndarray:
    """n i.i.d. int64 draws from distribution(probs): the first n uniforms
    of seeded_stream(seed), each mapped to its outcome by inverse CDF."""
    if n < 0:
        raise ValueError("n must be >= 0")
    cdf = np.cumsum(distribution(probs, "probs"))
    cdf[-1] = 1.0
    return np.searchsorted(cdf, seeded_stream(seed).random(n), side="right")


def seeded_stream(seed: int) -> np.random.Generator:
    """The one random stream of a seed: Philox keyed (seed mod 2^64, 0)."""
    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), 0]))


class SequenceSource:
    """A (conceptually infinite) symbol sequence named by its kind and parameters.

    prefix(n) computes the first n symbols afresh from the kind and its
    parameters, so for a fixed kind and parameters (a born source's seed
    among them) every prefix is reproducible bit for bit and a prefix of
    every longer one, except for kind "os", which draws anew on
    each call.  A "file" source reads its path, unless of_file gave it the
    symbols already read from there.
    """

    def __init__(self, kind: str, alphabet_size: int = 2, **parameters):
        if kind not in SOURCE_KEYWORDS:
            raise ValueError(f"unknown source kind {kind!r}; "
                             f"expected one of {tuple(SOURCE_KEYWORDS)}")
        unread = set(parameters) - set(SOURCE_KEYWORDS[kind])
        if unread:
            raise ValueError(f"source kind {kind!r} does not read "
                             f"{', '.join(map(repr, sorted(unread)))}")
        if alphabet_size < 2:
            raise ValueError("alphabet_size must be >= 2")
        self.kind = kind
        self.alphabet_size = alphabet_size
        self.parameters = {**SOURCE_KEYWORDS[kind], **parameters}
        self._read: SymbolString | None = None
        self._validate()

    def _validate(self) -> None:
        p = self.parameters
        if self.kind == "periodic":
            p["pattern"] = tuple(SymbolString(self.alphabet_size, p["pattern"]))
            if not p["pattern"]:
                raise ValueError("periodic source requires a non-empty pattern")
        elif self.kind == "born":
            p["probs"] = distribution(p["probs"], "probs")
            if len(p["probs"]) > self.alphabet_size:
                raise ValueError("more outcomes than alphabet symbols")
        elif self.kind == "file" and p["path"] is None:
            raise ValueError("file source requires path=")

    @classmethod
    def of_file(cls, path: str, sigma: SymbolString) -> "SequenceSource":
        """The "file" source of path, serving sigma, the symbols already read
        from it, without reading the file again."""
        source = cls("file", alphabet_size=sigma.alphabet_size, path=path)
        source._read = sigma
        return source

    def prefix(self, n: int) -> SymbolString:
        """The first n symbols of the sequence."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        k = self.alphabet_size
        p = self.parameters
        if self.kind == "periodic":
            return SymbolString(k, np.resize(np.array(p["pattern"], dtype=np.int64), n))
        if self.kind == "champernowne":
            return champernowne(k, n, p["start_at_one"])
        if self.kind == "born":
            return SymbolString(k, sample_indices(p["probs"], n, p["seed"]))
        if self.kind == "os":
            return SymbolString(k, os_entropy_symbols(k, n))
        sigma = self._read
        if sigma is None or n > len(sigma):
            sigma = read_sequence_file(p["path"])
            if sigma.alphabet_size != k:
                raise ValueError(f"file alphabet {sigma.alphabet_size} != source alphabet {k}")
            if n > len(sigma):
                raise ValueError(f"file holds {len(sigma)} symbols, {n} requested")
        return SymbolString(k, sigma.array[:n])

    def __repr__(self) -> str:
        return f"SequenceSource({self.kind!r}, k={self.alphabet_size}, {self.parameters})"


def os_entropy_symbols(k: int, n: int) -> np.ndarray:
    """n uniform symbols in [0, k) from OS entropy via rejection sampling on bytes."""
    if k > MAX_ALPHABET["os"]:
        raise ValueError(f"os supports alphabets up to 256 symbols, got {k}")
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


def block_frequencies(sigma: SymbolString, block_len: int) -> dict[str, float]:
    """Relative frequency of each length-l block over the n - l + 1
    overlapping windows (the normality convention).  All k^l blocks are
    keyed when that table is small, otherwise only observed blocks appear,
    counted without a k^l table.
    """
    if block_len < 1:
        raise ValueError(f"block length must be >= 1, got {block_len}")
    if block_len > len(sigma):
        raise ValueError(f"block length {block_len} exceeds string length {len(sigma)}")
    k = sigma.alphabet_size
    if k**block_len > 2**63:
        raise ValueError(f"block length {block_len}: {k}^{block_len} codes overflow int64")
    if k**block_len <= 65536:
        codes, counts = range(k**block_len), _window_counts(sigma.array, k, block_len)
    else:
        codes, counts = np.unique(_window_codes(sigma.array, k, block_len), return_counts=True)
    total = len(sigma) - block_len + 1
    return {
        _format_symbols(_block_symbols(int(code), k, block_len), k): c / total
        for code, c in zip(codes, counts)
    }


def _window_codes(arr: np.ndarray, k: int, block_len: int) -> np.ndarray:
    """The base-k code of each length-l block in the overlapping windows."""
    n = len(arr)
    codes = np.zeros(n - block_len + 1, dtype=np.int64)
    for j in range(block_len):
        codes = codes * k + arr[j : n - block_len + 1 + j]
    return codes


def _window_counts(arr: np.ndarray, k: int, block_len: int) -> np.ndarray:
    """Occurrence counts of every length-l block, indexed by its base-k code."""
    return np.bincount(_window_codes(arr, k, block_len), minlength=k**block_len)


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
        raise ValueError(f"{path}: not a {SEQ_SCHEMA} file: header {header!r}")
    fields = dict(p.partition("=")[::2] for p in parts[1:])
    for name in ("k", "n"):
        if not re.fullmatch("[0-9]+", fields.get(name, "")):
            raise ValueError(f"{path}: {SEQ_SCHEMA} header field {name}= is missing or "
                             f"not a non-negative integer: header {header!r}")
    if len(parts) != 3:
        raise ValueError(f"{path}: {SEQ_SCHEMA} header holds one k= and one n= and nothing "
                         f"else: header {header!r}")
    k = int(fields["k"])
    n = int(fields["n"])
    text = "".join(body.split()) if k <= 10 else ",".join(body.split())
    try:
        sigma = SymbolString.from_text(text, k)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if len(sigma) != n:
        raise ValueError(f"{path}: header says n={n} but file holds {len(sigma)} symbols")
    return sigma
