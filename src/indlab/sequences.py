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
        if len(arr) and (arr.min() < 0 or arr.max() >= k):
            outside = (arr < 0) | (arr >= k)
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
    def from_text(text: str | bytes, alphabet_size: int) -> "SymbolString":
        """Inverse of to_text, and the parser of every seq/v1 body: ASCII digits,
        comma-separated beyond base 10, at most 18 digits a symbol, with each
        run of ASCII whitespace a separator (none at all up to base 10).
        Anything else raises a ValueError naming the first bad text."""
        k = alphabet_size
        symbols = _parse_symbols(text.encode("ascii", "replace") if isinstance(text, str)
                                 else text, k)
        if symbols is None:
            if not isinstance(text, str):
                text = text.decode("utf-8", "surrogateescape")
            words = re.findall(f"[^{re.escape(_SPACE.decode())}]+", text)
            text = ("" if k <= 10 else ",").join(words)
            bad = re.search("[^0-9]" if k <= 10 else "[^0-9,]|[0-9]{19}|^,|,,|,$", text)
            raise ValueError(f"bad base-{k} symbol text {bad.group()!r}")
        return SymbolString(k, symbols)


# seq/v1 text is ASCII, and only these bytes separate symbols
_SPACE = b" \t\n\r\x0b\x0c"
_IS_SPACE = np.zeros(256, bool)
_IS_SPACE[list(_SPACE)] = True
# each ASCII digit to its value, for bytes.translate
_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))
# the numeral of every symbol below 256
_NUMERALS = tuple(map(str, range(256)))


def _parse_symbols(data: bytes, k: int) -> np.ndarray | None:
    """The symbols of SymbolString.from_text's text as ASCII bytes, or None
    if it is malformed."""
    if k <= 10:
        if data.translate(None, b"0123456789" + _SPACE):
            return None
        return np.frombuffer(data.translate(_DIGIT_VALUES, _SPACE), np.uint8)
    if data.translate(None, b"0123456789," + _SPACE):
        return None
    chars = np.frombuffer(data.strip(_SPACE), np.uint8)
    if not len(chars):
        return np.empty(0, np.int64)
    space = _IS_SPACE[chars]
    if space.any():  # each run of whitespace becomes one comma
        chars = chars[np.insert(~(space[1:] & space[:-1]), 0, True)]
        chars[_IS_SPACE[chars]] = ord(",")
    del space  # drop per-byte and per-token arrays before the column passes
    # token i is chars[starts[i] : ends[i]]
    ends = np.append(np.flatnonzero(chars == ord(",")), len(chars))
    starts = np.insert(ends[:-1] + 1, 0, 0)
    lengths = ends - starts
    del ends
    if lengths.min() < 1 or lengths.max() > 18:
        return None
    # one pass per digit column, over the tokens that reach it
    values = np.subtract(chars[starts], ord("0"), dtype=np.int64)
    for j in range(1, lengths.max()):
        live = np.flatnonzero(lengths > j)
        values[live] = values[live] * 10 + (chars[starts[live] + j] - ord("0"))
    return values


def champernowne(base: int, n: int, start_at_one: bool = False) -> SymbolString:
    """First n digits of Champernowne's expansion in the given base, 2..36: the
    base-k numerals 0,1,2,... (or 1,2,3,...) concatenated, digits 0-9 then a-z."""
    if not 2 <= base <= MAX_ALPHABET["champernowne"]:
        raise ValueError(f"champernowne base must be in 2..36 (digits 0-9 then a-z), got {base}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    out = np.empty(n, np.uint8)
    filled, width, first = 0, 1, int(start_at_one)
    while filled < n:
        # the numerals of this width still needed, one row of digits each
        count = min(base**width - first, -(-(n - filled) // width))
        t = np.arange(first, first + count, dtype=np.int64)
        digits = np.empty((count, width), np.uint8)
        for column in range(width - 1, -1, -1):
            t, digits[:, column] = np.divmod(t, base)
        take = min(count * width, n - filled)
        out[filled : filled + take] = digits.reshape(-1)[:take]
        filled += take
        first, width = base**width, width + 1
    return SymbolString(base, out)


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
    return ",".join(map(_NUMERALS.__getitem__ if k <= 256 else str, np.asarray(symbols).tolist()))


def write_sequence_file(path: str, sigma: SymbolString) -> None:
    with open(path, "w") as f:
        f.write(f"{SEQ_SCHEMA} k={sigma.alphabet_size} n={len(sigma)}\n")
        f.write(sigma.to_text())
        f.write("\n")


def read_sequence_file(path: str) -> SymbolString:
    """The symbols of the seq/v1 file at path.

    The file is ASCII.  Its first line is the header "seq/v1 k=K n=N": the
    alphabet size K >= 2 and the symbol count N, each a run of ASCII digits,
    and nothing else.  The body that follows is SymbolString.from_text's text.
    Up to base 10 it is one digit a symbol, and ASCII whitespace may stand
    anywhere.  Beyond base 10 it is decimal symbols of 1 to 18 digits, each
    parted from the next by one comma or by one run of ASCII whitespace, not
    both; whitespace may also lead or trail.  Every symbol must be below K,
    and there must be N of them.  Any other text, non-ASCII bytes included,
    raises a ValueError whose message begins with path.
    """
    with open(path, "rb") as f:
        # a lone CR ends the header line too
        header, _, rest = f.readline().partition(b"\r")
        body = rest + f.read()
    parts = [p.decode("ascii", "surrogateescape") for p in header.split()]
    header = header.strip(_SPACE).decode("utf-8", "surrogateescape")
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
    try:
        sigma = SymbolString.from_text(body, k)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if len(sigma) != n:
        raise ValueError(f"{path}: header says n={n} but file holds {len(sigma)} symbols")
    return sigma
