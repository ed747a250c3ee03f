import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indlab import bell, born, hv
from indlab import sequences as sq

from builders import bits, champernowne_text, numeral

# frozen: one Philox run of the fair-coin sampler, seed 42
GOLDEN_FAIR_COIN_SEED42_N8 = "10100000"
# frozen before chunked sampling was removed: sha256 of the int64 bytes of
# sample_indices([0.2, 0.3, 0.5], 10**5, 5)
GOLDEN_SAMPLE_INDICES_SHA256 = "37884c42829c7b4c40ef1c2f27678019aa15b35067f724dc0b7e83cb95d6ef61"


def champernowne_digit_at(base: int, position: int) -> int:
    """Digit at a position of the base-k concatenation 0,1,2,..., by stepping
    over whole numerals: the oracle for the concatenating generator."""
    t = 0
    while position >= len(digits := numeral(t, base)):
        position -= len(digits)
        t += 1
    return int(digits[position], 36)


ASCII_SPACE = " \t\n\r\x0b\x0c"
# base-36 digit characters to their values
DIGIT_VALUES_36 = bytes.maketrans(b"0123456789abcdefghijklmnopqrstuvwxyz", bytes(range(36)))


def regex_from_text(text: str, k: int) -> sq.SymbolString:
    """The regex path: each run of ASCII whitespace joined away (up to base
    10) or made a comma, one regex naming the first bad text, then one Python
    str per symbol.  The oracle for SymbolString.from_text."""
    words = re.split(f"[{ASCII_SPACE}]+", text.strip(ASCII_SPACE))
    text = ("" if k <= 10 else ",").join(words)
    bad = re.search("[^0-9]" if k <= 10 else "[^0-9,]|[0-9]{19}|^,|,,|,$", text)
    if bad:
        raise ValueError(f"bad base-{k} symbol text {bad.group()!r}")
    if k <= 10:
        return sq.SymbolString(k, np.frombuffer(text.encode(), np.uint8) - ord("0"))
    return sq.SymbolString(k, np.array(text.split(",") if text else [], dtype=str)
                           .astype(np.int64))


def symbols_or_message(parse):
    try:
        return tuple(parse())
    except ValueError as exc:
        return str(exc)


# symbol text: digit runs up to 20 long, separators and a few bad characters
SYMBOL_TEXT = st.lists(st.one_of(
    st.text("0123456789", min_size=1, max_size=20),
    st.sampled_from([",", ",,", *ASCII_SPACE, "  ", " ,", "x", "-", "\x1c", "\xa0", "\u0661"]),
), max_size=12).map("".join)


class TestSymbolString:
    def test_symbols_in_range(self):
        with pytest.raises(ValueError):
            sq.SymbolString(2, (0, 2))
        with pytest.raises(ValueError):
            sq.SymbolString(2, (-1,))

    def test_alphabet_floor(self):
        with pytest.raises(ValueError):
            sq.SymbolString(1, (0,))

    def test_empty_is_valid(self):
        assert len(sq.SymbolString(2, ())) == 0

    @pytest.mark.parametrize("symbols", [(0.5,), (True, False), np.zeros((2, 2), dtype=int)],
                             ids=["float", "bool", "2-d"])
    def test_rejects_non_integer_and_non_1d(self, symbols):
        with pytest.raises(ValueError, match="1-d integer sequence"):
            sq.SymbolString(2, symbols)

    def test_error_names_the_bad_symbol(self):
        with pytest.raises(ValueError, match="symbol 7 outside alphabet"):
            sq.SymbolString(3, np.array([0, 7, 9]))

    # only ASCII whitespace separates: not a no-break space, a file separator
    # or a next-line character, and no byte that is not ASCII
    @pytest.mark.parametrize("text", ["01x", "0\u0661", "01\u00a001", "\x1c01", "0\u0085",
                                      b"01\xff1"])
    def test_from_text_rejects_non_ascii_digits(self, text):
        with pytest.raises(ValueError, match="bad base-2 symbol text"):
            sq.SymbolString.from_text(text, 2)

    @pytest.mark.parametrize("text", ["0,,1", ",1", "1,", "1;2", "1" * 19, "1\x1c2,3"])
    def test_from_text_rejects_malformed_large_base_text(self, text):
        with pytest.raises(ValueError, match="bad base-16 symbol text"):
            sq.SymbolString.from_text(text, 16)

    def test_array_is_read_only_and_compact(self):
        s = sq.SymbolString(256, (0, 255))
        assert s.array.dtype == np.uint8
        with pytest.raises(ValueError):
            s.array[0] = 1
        assert sq.SymbolString(300, (0, 299)).array.dtype == np.int64

    def test_iteration_yields_python_ints(self):
        assert tuple(bits("011")) == (0, 1, 1)
        assert all(type(v) is int for v in sq.SymbolString(300, (5, 299)))

    def test_caller_array_is_copied(self):
        raw = np.array([0, 1, 1])
        s = sq.SymbolString(2, raw)
        raw[0] = 1
        assert s.to_text() == "011"

    def test_text_roundtrip_binary(self):
        s = bits("0110")
        assert s.to_text() == "0110"
        assert sq.SymbolString.from_text("0110", 2) == s

    def test_text_roundtrip_large_base(self):
        s = sq.SymbolString(16, (0, 15, 7))
        assert s.to_text() == "0,15,7"
        assert sq.SymbolString.from_text(s.to_text(), 16) == s

    @settings(max_examples=300)
    @given(SYMBOL_TEXT, st.sampled_from([2, 3, 10, 11, 16, 256, 257, 10**18]))
    def test_from_text_matches_the_regex_path(self, text, k):
        # the same symbols or the same message, from the text as str and as bytes
        want = symbols_or_message(lambda: regex_from_text(text, k))
        assert symbols_or_message(lambda: sq.SymbolString.from_text(text, k)) == want
        assert symbols_or_message(lambda: sq.SymbolString.from_text(text.encode(), k)) == want

    @given(st.lists(st.integers(0, 1), max_size=30), st.lists(st.integers(0, 1), max_size=30))
    def test_prefix_relation(self, a, b):
        sa, sab = sq.SymbolString(2, tuple(a)), sq.SymbolString(2, tuple(a + b))
        assert sa.is_prefix_of(sab)


class TestChampernowne:
    def test_base10_starts_at_zero(self):
        assert sq.champernowne(10, 11).to_text() == "01234567891"

    def test_base10_twenty_digits(self):
        assert sq.champernowne(10, 20).to_text() == "01234567891011121314"

    def test_base2_hand_concatenation(self):
        # 0,1,10,11,100 -> "01101110 0..."
        assert sq.champernowne(2, 8).to_text() == "01101110"

    def test_empty(self):
        assert sq.champernowne(2, 0).to_text() == ""

    def test_start_at_one(self):
        assert sq.champernowne(10, 11, start_at_one=True).to_text() == "12345678910"

    def test_positional_oracle_to_1000(self):
        # independent positional arithmetic vs the concatenating generator,
        # through every numeral t < 1000 in each base, letters included
        for base in (2, 10, 16, 36):
            n = sum(
                len(numeral(t, base)) for t in range(1000)
            )
            s = sq.champernowne(base, n)
            for pos in range(0, n, 97):
                assert s[pos] == champernowne_digit_at(base, pos)

    @pytest.mark.parametrize("start_at_one", [False, True])
    def test_matches_the_concatenating_oracle_across_widths(self, start_at_one):
        # every base, at the lengths around the end of the width-1, -2 and -3
        # numerals, and one width-4 numeral further
        for base in range(2, 37):
            ends = [(base - start_at_one) + sum(w * (base - 1) * base ** (w - 1)
                                                for w in range(2, top + 1))
                    for top in (1, 2, 3)]
            want = champernowne_text(base, ends[-1] + 5, start_at_one).encode()
            for n in [0, 1] + [end + d for end in ends for d in (-1, 0, 1)] + [ends[-1] + 5]:
                got = sq.champernowne(base, n, start_at_one)
                assert got.alphabet_size == base and len(got) == n
                assert got.array.tobytes() == want[:n].translate(DIGIT_VALUES_36), (base, n)

    @pytest.mark.parametrize("base", [2, 3, 7, 10, 16, 36])
    def test_numerals_parse_back(self, base):
        # the oracle's numerals
        for t in list(range(200)) + [base**5 - 1, base**5, 10**9 + 7]:
            digits = numeral(t, base)
            assert int(digits, base) == t and (digits == "0" or digits[0] != "0")

    def test_bad_args(self):
        with pytest.raises(ValueError):
            sq.champernowne(1, 5)
        with pytest.raises(ValueError):
            sq.champernowne(2, -1)

    @pytest.mark.parametrize("base", [1, 37, 40])
    def test_base_outside_2_to_36_rejected(self, base):
        with pytest.raises(ValueError, match="2..36"):
            sq.champernowne(base, 5)


class TestSources:
    def test_constant_truncate(self):
        src = sq.SequenceSource("periodic", pattern=(1,))
        assert src.prefix(5).to_text() == "11111"

    def test_born_sampler_golden(self):
        src = sq.SequenceSource("born", seed=42, probs=[0.5, 0.5])
        assert src.prefix(8).to_text() == GOLDEN_FAIR_COIN_SEED42_N8

    def test_champernowne_source(self):
        src = sq.SequenceSource("champernowne", alphabet_size=10)
        assert src.prefix(20).to_text() == "01234567891011121314"

    @pytest.mark.parametrize(
        "kind,kwargs",
        [
            ("born", {"seed": 9, "probs": [0.3, 0.7]}),
            ("champernowne", {}),
            ("periodic", {"pattern": (1,)}),
            ("periodic", {"pattern": (0, 1, 1)}),
        ],
    )
    def test_prefix_consistency(self, kind, kwargs):
        src = sq.SequenceSource(kind, **kwargs)
        short = src.prefix(10)
        long = sq.SequenceSource(kind, **kwargs).prefix(200)
        assert short.is_prefix_of(long)
        # and from one source
        assert src.prefix(150).is_prefix_of(src.prefix(200))

    def test_os_entropy_not_reproducible(self):
        a = sq.SequenceSource("os").prefix(64)
        b = sq.SequenceSource("os").prefix(64)
        assert a != b  # 2^-64 false-failure odds

    def test_file_source(self, tmp_path):
        path = tmp_path / "s.txt"
        sq.write_sequence_file(str(path), bits("010011"))
        src = sq.SequenceSource("file", path=str(path))
        assert src.prefix(4).to_text() == "0100"
        with pytest.raises(ValueError, match="holds 6"):
            src.prefix(10)

    def test_file_source_of_symbols_already_read(self, tmp_path, monkeypatch):
        path = str(tmp_path / "s.seq")
        sq.write_sequence_file(path, bits("010011"))
        sigma = sq.read_sequence_file(path)
        reads = []
        monkeypatch.setattr(sq, "read_sequence_file",
                            lambda p: reads.append(p) or sigma)
        src = sq.SequenceSource.of_file(path, sigma)
        assert (src.kind, src.alphabet_size) == ("file", 2)
        assert src.prefix(6) == sigma and src.prefix(4).to_text() == "0100"
        assert reads == []
        with pytest.raises(ValueError, match="holds 6"):
            src.prefix(10)
        assert reads == [path]

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown source kind"):
            sq.SequenceSource("magic")
        # a constant sequence is the periodic source of a one-symbol pattern
        with pytest.raises(ValueError, match="unknown source kind 'constant'"):
            sq.SequenceSource("constant", symbol=1)

    @pytest.mark.parametrize("kind,kwargs,keyword", [
        ("born", {"seed": 1, "probz": [0.1, 0.9]}, "probz"),
        ("periodic", {"chunk_size": 4}, "chunk_size"),
        ("champernowne", {"symbol": 1}, "symbol"),
        ("os", {"probs": [0.5, 0.5]}, "probs"),
        ("periodic", {"seed": 5}, "seed"),
        ("champernowne", {"seed": 9}, "seed"),
    ])
    def test_a_keyword_the_kind_does_not_read_is_rejected(self, kind, kwargs, keyword):
        with pytest.raises(ValueError, match=f"source kind '{kind}' does not read '{keyword}'"):
            sq.SequenceSource(kind, **kwargs)

    def test_defaults_come_from_the_keyword_table(self):
        fair = sq.SequenceSource("born", seed=42)
        assert fair.prefix(8).to_text() == GOLDEN_FAIR_COIN_SEED42_N8
        assert sq.SequenceSource("born").prefix(8) == \
            sq.SequenceSource("born", seed=0).prefix(8)
        assert sq.SequenceSource("champernowne").prefix(3).to_text() == "011"
        assert sq.SequenceSource("periodic").prefix(5).to_text() == "01010"
        with pytest.raises(ValueError, match="requires path="):
            sq.SequenceSource("file")

    def test_periodic_pattern_validated(self):
        with pytest.raises(ValueError):
            sq.SequenceSource("periodic", pattern=())
        with pytest.raises(ValueError):
            sq.SequenceSource("periodic", pattern=(2,))

    def test_non_integer_parameters_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            sq.SequenceSource("periodic", pattern=(0.5,))
        with pytest.raises(ValueError, match="integer"):
            sq.SequenceSource("periodic", pattern=(0, 1.7))

    def test_large_base_champernowne_source(self):
        src = sq.SequenceSource("champernowne", alphabet_size=16)
        assert tuple(src.prefix(19)) == tuple(range(16)) + (1, 0, 1)


class TestSampling:
    def test_deterministic_per_seed(self):
        a = sq.sample_indices([0.5, 0.5], 100, 7)
        b = sq.sample_indices([0.5, 0.5], 100, 7)
        assert (a == b).all()
        c = sq.sample_indices([0.5, 0.5], 100, 8)
        assert (a != c).any()

    def test_single_philox_draw_frozen(self):
        draw = sq.sample_indices([0.2, 0.3, 0.5], 10**5, 5)
        assert draw.dtype == np.int64
        assert hashlib.sha256(draw.tobytes()).hexdigest() == GOLDEN_SAMPLE_INDICES_SHA256
        empty = sq.sample_indices([0.5, 0.5], 0, 1)
        assert empty.dtype == np.int64 and len(empty) == 0

    def test_point_mass_constant(self):
        assert sq.sample_indices([1.0], 5, 1).tolist() == [0] * 5

    def test_lln_six_sigma(self):
        n = 10**5
        draw = sq.sample_indices([0.3, 0.7], n, 12)
        for idx, p in enumerate((0.3, 0.7)):
            freq = np.count_nonzero(draw == idx) / n
            assert abs(freq - p) <= 6 * math.sqrt(p * (1 - p) / n)

    def test_validation(self):
        with pytest.raises(ValueError):
            sq.sample_indices([0.5, 0.6], 10, 0)
        with pytest.raises(ValueError):
            sq.sample_indices([], 10, 0)
        with pytest.raises(ValueError):
            sq.sample_indices([0.5, 0.5], -1, 0)


class TestDistribution:
    def test_returns_plain_floats(self):
        p = sq.distribution(np.array([1, 0]), "probs")
        assert p == (1.0, 0.0) and all(type(x) is float for x in p)

    @pytest.mark.parametrize("values", [[0.5, 0.6], [1.5, -0.5], [math.nan, 1.0],
                                        [math.inf, 0.0], [[0.5, 0.5]], ["0.5", "0.5"]],
                             ids=["sum-1.1", "negative", "nan", "inf", "nested", "strings"])
    def test_every_caller_refuses_alike(self, values):
        """sample_indices, the born SequenceSource and the prng Sampler (when
        built), HVModel (mu and target), run_bipartite and BornMeasure raise one
        message, told apart only by the name of what they check."""
        n = len(values)
        strat = bell.LocalDeterministicStrategy((0, 0, 0), (0, 0, 0))
        calls = [
            ("probs", lambda: sq.sample_indices(values, 10, 0)),
            ("probs", lambda: sq.SequenceSource("born", probs=values)),
            ("probs", lambda: hv.Sampler("prng", seed=0, probs=values)),
            ("mu", lambda: hv.HVModel(tuple(range(n)), tuple(values))),
            ("target", lambda: hv.HVModel((0, 1), (0.5, 0.5), target=tuple(values))),
            ("ensemble weights", lambda: bell.run_bipartite(
                "hv", bell.DEFAULT_SETTINGS, 10, seed=1, hv_ensemble=[(w, strat) for w in values])),
            ("probabilities", lambda: born.BornMeasure(tuple(range(n)), tuple(values))),
        ]
        rests = set()
        for what, call in calls:
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value).startswith(what + " must be "), str(exc.value)
            rests.add(str(exc.value)[len(what):])
        assert len(rests) == 1, rests

    def test_a_source_and_a_sampler_refuse_an_empty_measure(self):
        """Built with no outcomes, a born source and a prng sampler are refused
        before any prefix or state is asked of them."""
        message = re.escape("probs must be finite, non-negative and sum to 1, got []")
        with pytest.raises(ValueError, match=message):
            sq.SequenceSource("born", probs=[])
        with pytest.raises(ValueError, match=message):
            hv.Sampler("prng", seed=0, probs=[])

    def test_born_rounds_only_a_computed_zero(self):
        assert born.BornMeasure((0, 1), (1.0, -1e-11)).probabilities == (1.0, 0.0)
        with pytest.raises(ValueError, match=r"probabilities must be .* got \[1.0, -1e-09\]"):
            born.BornMeasure((0, 1), (1.0, -1e-9))


class TestBlockFrequencies:
    def test_single_symbols(self):
        freqs = sq.block_frequencies(bits("0101"), 1)
        assert freqs == {"0": 0.5, "1": 0.5}

    def test_pairs_constant(self):
        freqs = sq.block_frequencies(bits("1111"), 2)
        assert freqs["11"] == 1.0
        assert freqs["00"] == freqs["01"] == freqs["10"] == 0.0

    def test_overlapping_windows(self):
        over = sq.block_frequencies(bits("010101"), 2)
        assert over["01"] == pytest.approx(3 / 5)

    @settings(max_examples=40)
    @given(st.lists(st.integers(0, 2), min_size=3, max_size=60), st.integers(1, 3))
    def test_normalization(self, syms, ell):
        s = sq.SymbolString(3, tuple(syms))
        freqs = sq.block_frequencies(s, ell)
        assert abs(sum(freqs.values()) - 1.0) <= 1e-12

    def test_block_longer_than_string(self):
        with pytest.raises(ValueError, match="exceeds"):
            sq.block_frequencies(bits("01"), 3)

    @pytest.mark.parametrize("k,block_len", [(2, 40), (2, 63), (3, 39), (16, 15)])
    def test_long_blocks_key_only_observed_blocks(self, k, block_len):
        # a k^l table would not fit in memory; only the windows are counted
        s = sq.SymbolString(k, sq.sample_indices([1 / k] * k, 200, k))
        windows = [tuple(s.array[i:i + block_len].tolist()) for i in range(201 - block_len)]
        observed = sorted(set(windows))  # tuple order is base-k code order
        freqs = sq.block_frequencies(s, block_len)
        assert list(freqs) == [sq._format_symbols(w, k) for w in observed]
        assert list(freqs.values()) == [windows.count(w) / len(windows) for w in observed]

    def test_block_codes_past_int64_rejected(self):
        with pytest.raises(ValueError, match="block length 64: 2\\^64 codes overflow int64"):
            sq.block_frequencies(bits("01" * 40), 64)

    def test_champernowne_calibration(self):
        # frozen calibration: exactly 530198 ones in the first 1e6 bits
        s = sq.champernowne(2, 10**6)
        assert int(s.array.sum()) == 530198
        assert abs(sq.block_frequencies(s, 1)["1"] - 0.5) <= 0.0305


class TestSequenceFile:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "x.txt")
        s = sq.champernowne(10, 50)
        sq.write_sequence_file(path, s)
        assert sq.read_sequence_file(path) == s

    def test_roundtrip_large_base(self, tmp_path):
        path = str(tmp_path / "x.txt")
        s = sq.SymbolString(12, (0, 11, 5, 5))
        sq.write_sequence_file(path, s)
        assert sq.read_sequence_file(path) == s

    @pytest.mark.parametrize("k", [2, 10, 11, 16, 256, 257, 10**18])
    def test_roundtrip_matches_an_independent_writer(self, tmp_path, k):
        # k = 10^18 brings 18-digit symbols, the longest a file may hold
        rng = np.random.default_rng(k % 2**32)
        values = [0, k - 1, *rng.integers(0, k, 3000).tolist(), k // 10, k - 1]
        sigma = sq.SymbolString(k, values)
        sep = "" if k <= 10 else ","
        path = tmp_path / "x.seq"
        sq.write_sequence_file(str(path), sigma)
        assert path.read_bytes() == \
            f"seq/v1 k={k} n={len(values)}\n{sep.join(map(str, values))}\n".encode()
        assert sq.read_sequence_file(str(path)) == sigma
        # wrapped at every separator, and with CRLF line ends
        wrapped = ("\r\n" if k <= 10 else " \n\t").join(map(str, values))
        path.write_bytes(f"seq/v1 k={k} n={len(values)}\r\n{wrapped}\r\n".encode())
        assert sq.read_sequence_file(str(path)) == sigma

    def test_a_lone_cr_ends_the_header(self, tmp_path):
        path = tmp_path / "x.seq"
        path.write_bytes(b"seq/v1 k=2 n=4\r0110\r")
        assert sq.read_sequence_file(str(path)) == bits("0110")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("nonsense\n01\n")
        with pytest.raises(ValueError, match="not a seq/v1"):
            sq.read_sequence_file(str(path))

    def test_length_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("seq/v1 k=2 n=5\n01\n")
        with pytest.raises(ValueError, match="header says"):
            sq.read_sequence_file(str(path))
