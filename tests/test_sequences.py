import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indlab import sequences as sq

# frozen: one Philox run of the fair-coin sampler, seed 42
GOLDEN_FAIR_COIN_SEED42_N8 = "10100000"


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

    @pytest.mark.parametrize("text", ["01x", "0\u0661"])
    def test_from_text_rejects_non_ascii_digits(self, text):
        with pytest.raises(ValueError, match="bad base-2 symbol text"):
            sq.SymbolString.from_text(text, 2)

    @pytest.mark.parametrize("text", ["0,,1", ",1", "1,", "1;2", "1" * 19])
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
        assert tuple(sq.bits("011")) == (0, 1, 1)
        assert all(type(v) is int for v in sq.SymbolString(300, (5, 299)))

    def test_caller_array_is_copied(self):
        raw = np.array([0, 1, 1])
        s = sq.SymbolString(2, raw)
        raw[0] = 1
        assert s.to_text() == "011"

    def test_text_roundtrip_binary(self):
        s = sq.bits("0110")
        assert s.to_text() == "0110"
        assert sq.SymbolString.from_text("0110", 2) == s

    def test_text_roundtrip_large_base(self):
        s = sq.SymbolString(16, (0, 15, 7))
        assert s.to_text() == "0,15,7"
        assert sq.SymbolString.from_text(s.to_text(), 16) == s

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
        # through every numeral t < 1000 in both bases
        for base in (2, 10):
            n = sum(
                len(sq._to_base(t, base)) for t in range(1000)
            )
            s = sq.champernowne(base, n)
            for pos in range(0, n, 97):
                assert s[pos] == sq.champernowne_digit_at(base, pos)

    @pytest.mark.parametrize("base", [2, 3, 7, 10, 16, 36])
    def test_numerals_parse_back(self, base):
        for t in list(range(200)) + [base**5 - 1, base**5, 10**9 + 7]:
            numeral = sq._to_base(t, base)
            assert int(numeral, base) == t and (numeral == "0" or numeral[0] != "0")

    def test_bad_args(self):
        with pytest.raises(ValueError):
            sq.champernowne(1, 5)
        with pytest.raises(ValueError):
            sq.champernowne(2, -1)


class TestSources:
    def test_constant_truncate(self):
        src = sq.SequenceSource("constant", symbol=1)
        assert src.prefix(5).to_text() == "11111"

    def test_born_sampler_golden(self):
        src = sq.SequenceSource("born_sampler", seed=42, probs=[0.5, 0.5])
        assert src.prefix(8).to_text() == GOLDEN_FAIR_COIN_SEED42_N8

    def test_champernowne_source(self):
        src = sq.SequenceSource("champernowne", alphabet_size=10)
        assert src.prefix(20).to_text() == "01234567891011121314"

    @pytest.mark.parametrize(
        "kind,kwargs",
        [
            ("born_sampler", {"seed": 9, "probs": [0.3, 0.7]}),
            ("champernowne", {}),
            ("constant", {"symbol": 1}),
            ("periodic", {"pattern": (0, 1, 1)}),
        ],
    )
    def test_prefix_consistency(self, kind, kwargs):
        src = sq.SequenceSource(kind, **kwargs)
        short = src.prefix(10)
        long = sq.SequenceSource(kind, **kwargs).prefix(200)
        assert short.is_prefix_of(long)
        # and on the same cursor
        assert src.prefix(150).is_prefix_of(src.prefix(200))

    def test_clone_reproduces(self):
        src = sq.SequenceSource("born_sampler", seed=123)
        a = src.prefix(64)
        assert src.clone().prefix(64) == a

    def test_os_entropy_not_reproducible(self):
        a = sq.SequenceSource("os_entropy").prefix(64)
        b = sq.SequenceSource("os_entropy").prefix(64)
        assert a != b  # 2^-64 false-failure odds
        src = sq.SequenceSource("os_entropy")
        assert src.prefix(10).is_prefix_of(src.prefix(30))

    def test_file_source(self, tmp_path):
        path = tmp_path / "s.txt"
        sq.write_sequence_file(str(path), sq.bits("010011"))
        src = sq.SequenceSource("file", path=str(path))
        assert src.prefix(4).to_text() == "0100"
        with pytest.raises(ValueError, match="holds 6"):
            src.clone().prefix(10)

    def test_file_source_of_symbols_already_read(self, tmp_path, monkeypatch):
        path = str(tmp_path / "s.seq")
        sq.write_sequence_file(path, sq.bits("010011"))
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

    def test_periodic_pattern_validated(self):
        with pytest.raises(ValueError):
            sq.SequenceSource("periodic", pattern=())
        with pytest.raises(ValueError):
            sq.SequenceSource("periodic", pattern=(2,))

    def test_non_integer_parameters_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            sq.SequenceSource("constant", symbol=0.5)
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

    def test_chunked_independent_of_chunk_join(self):
        full = sq.sample_indices([0.2, 0.8], 1000, 3, chunk_size=100)
        again = sq.sample_indices([0.2, 0.8], 1000, 3, chunk_size=100)
        assert (full == again).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            sq.sample_indices([0.5, 0.6], 10, 0)
        with pytest.raises(ValueError):
            sq.sample_indices([], 10, 0)
        with pytest.raises(ValueError):
            sq.sample_indices([0.5, 0.5], -1, 0)


class TestBlockFrequencies:
    def test_single_symbols(self):
        freqs = sq.block_frequencies(sq.bits("0101"), 1)
        assert freqs == {"0": 0.5, "1": 0.5}

    def test_pairs_constant(self):
        freqs = sq.block_frequencies(sq.bits("1111"), 2)
        assert freqs["11"] == 1.0
        assert freqs["00"] == freqs["01"] == freqs["10"] == 0.0

    def test_overlapping_vs_disjoint(self):
        s = sq.bits("010101")
        over = sq.block_frequencies(s, 2)
        assert over["01"] == pytest.approx(3 / 5)
        dis = sq.block_frequencies(s, 2, disjoint=True)
        assert dis["01"] == 1.0

    @settings(max_examples=40)
    @given(st.lists(st.integers(0, 2), min_size=3, max_size=60), st.integers(1, 3))
    def test_normalization(self, syms, ell):
        s = sq.SymbolString(3, tuple(syms))
        freqs = sq.block_frequencies(s, ell)
        assert abs(sum(freqs.values()) - 1.0) <= 1e-12

    def test_block_longer_than_string(self):
        with pytest.raises(ValueError, match="exceeds"):
            sq.block_frequencies(sq.bits("01"), 3)

    def test_champernowne_calibration(self):
        # frozen calibration: exactly 530198 ones in the first 1e6 bits
        s = sq.champernowne(2, 10**6)
        assert s.array.sum() == 530198
        freqs = sq.block_frequencies(s, 1)
        assert abs(freqs["1"] - 0.5) <= 0.0305


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
