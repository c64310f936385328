import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drcw.sequences import (
    WINDOW_KINDS,
    acf,
    binomial_weights,
    generate_golay_pair,
    ptm_order,
    verify_complementary,
    window_template,
)
from oracles import acf_direct


class TestGolayPair:
    def test_length_one(self):
        pair = generate_golay_pair(1)
        assert pair.x1.tolist() == [1]
        assert pair.x2.tolist() == [1]

    def test_length_two(self):
        pair = generate_golay_pair(2)
        assert pair.x1.tolist() == [1, 1]
        assert pair.x2.tolist() == [1, -1]
        total = acf(pair.x1) + acf(pair.x2)
        assert total.tolist() == [0, 4, 0]

    def test_length_four(self):
        pair = generate_golay_pair(4)
        assert pair.x1.tolist() == [1, 1, 1, -1]
        assert pair.x2.tolist() == [1, 1, -1, 1]
        # independent oracle: summed shift-multiply-sum ACF is an impulse
        total = acf_direct(pair.x1.tolist()) + acf_direct(pair.x2.tolist())
        expected = np.zeros(7, dtype=int)
        expected[3] = 8
        assert np.array_equal(total, expected)

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32, 64, 128])
    def test_complementary_exact(self, n):
        pair = generate_golay_pair(n)
        report = verify_complementary(pair.x1, pair.x2)
        assert report.ok
        assert report.max_violation == 0

    @pytest.mark.parametrize("n", [0, 3, 6, 48, 100])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(ValueError, match="power of two"):
            generate_golay_pair(n)


class TestAcf:
    def test_small_examples(self):
        assert acf([1, 1]).tolist() == [1, 2, 1]
        assert acf([1, -1]).tolist() == [-1, 2, -1]
        assert acf([1, 1, 1, -1]).tolist() == [-1, 0, 1, 4, 1, 0, -1]

    @given(st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=40))
    def test_matches_direct_oracle(self, seq):
        assert np.array_equal(acf(seq), acf_direct(seq))

    @given(st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=40))
    def test_symmetric_with_full_peak(self, seq):
        vals = acf(seq)
        assert np.array_equal(vals, vals[::-1])
        assert vals[len(seq) - 1] == len(seq)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            acf([1, 0, 1])


class TestVerifyComplementary:
    def test_accepts_valid_pair(self):
        assert verify_complementary([1, 1], [1, -1]).ok

    def test_rejects_identical_sequences(self):
        report = verify_complementary([1, 1], [1, 1])
        assert not report.ok
        assert report.max_violation == 2
        assert abs(report.worst_lag) == 1

    def test_generated_64(self):
        pair = generate_golay_pair(64)
        assert verify_complementary(pair.x1, pair.x2).ok

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            verify_complementary([1, 1], [1, 1, -1])


class TestPtmOrder:
    def test_small(self):
        assert ptm_order(1).tolist() == [1]
        assert ptm_order(4).tolist() == [1, -1, -1, 1]
        assert ptm_order(8).tolist() == [1, -1, -1, 1, -1, 1, 1, -1]

    @pytest.mark.parametrize("m", [2, 4, 8, 16, 64, 256])
    def test_parity_of_ones_oracle(self, m):
        s = ptm_order(m)
        for j in range(m):
            expected = 1 if bin(j).count("1") % 2 == 0 else -1
            assert s[j] == expected

    @pytest.mark.parametrize("m", [2, 4, 8, 32, 128])
    def test_self_similarity(self, m):
        # the even-index subsequence is the sequence at half length
        assert np.array_equal(ptm_order(m)[::2], ptm_order(m // 2))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            ptm_order(48)


class TestBinomialWeights:
    def test_proportional_to_binomial_rows(self):
        w2 = binomial_weights(2)
        assert w2[0] == pytest.approx(w2[1])
        w4 = binomial_weights(4)
        ratios = w4 / w4[0]
        assert np.allclose(ratios, [1, 3, 3, 1], rtol=1e-14)

    def test_energy_normalization(self):
        for m in (1, 2, 4, 7, 50):
            w = binomial_weights(m)
            assert float(np.sum(w * w)) == pytest.approx(m, rel=1e-14)

    def test_m4_accumulation_gain(self):
        # hand computation on the 1,3,3,1 row: sum 8, sum of squares 20
        w = binomial_weights(4)
        gain = 10 * math.log10(np.sum(w) ** 2 / (4 * np.sum(w * w)))
        assert gain == pytest.approx(10 * math.log10(64 / 80), abs=1e-12)
        assert gain == pytest.approx(-0.969, abs=1e-3)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            binomial_weights(0)


class TestWindows:
    def test_rectangular_is_ones(self):
        for m in (1, 2, 13):
            assert np.array_equal(window_template("rectangular", m).values, np.ones(m))

    def test_hamming_3(self):
        w = window_template("hamming", 3)
        ratios = w.values / w.values[1]
        assert np.allclose(ratios, [0.08, 1.0, 0.08], atol=1e-12)

    def test_hanning_3(self):
        w = window_template("hanning", 3)
        assert w.values[0] == pytest.approx(0.0, abs=1e-12)
        assert w.values[2] == pytest.approx(0.0, abs=1e-12)
        assert w.values[1] > 0

    def test_blackman_endpoints_near_zero(self):
        w = window_template("blackman", 9)
        assert w.values[0] == pytest.approx(0.0, abs=1e-12)
        assert np.argmax(w.values) == 4

    @pytest.mark.parametrize("kind", WINDOW_KINDS)
    @pytest.mark.parametrize("m", [3, 10, 50, 199])
    def test_energy_normalization(self, kind, m):
        w = window_template(kind, m)
        assert abs(float(np.sum(w.values**2)) - m) <= 1e-12 * m
        assert np.all(w.values >= 0)

    def test_identically_zero_window_rejected(self):
        # hanning/blackman endpoints vanish, so length 2 has no energy to scale
        for kind in ("hanning", "blackman"):
            with pytest.raises(ValueError, match="identically zero"):
                window_template(kind, 2)
        assert window_template("hamming", 2).m == 2

    def test_symmetry(self):
        for kind in WINDOW_KINDS:
            v = window_template(kind, 12).values
            assert np.allclose(v, v[::-1], atol=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown window kind"):
            window_template("kaiser", 8)

    def test_non_rectangular_needs_two_points(self):
        with pytest.raises(ValueError):
            window_template("hamming", 1)


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=8))
def test_golay_doubling_invariant(p):
    n = 2**p
    pair = generate_golay_pair(n)
    total = acf(pair.x1) + acf(pair.x2)
    expected = np.zeros(2 * n - 1, dtype=np.int64)
    expected[n - 1] = 2 * n
    assert np.array_equal(total, expected)
