import math
import random
import sys

import pytest

from raneyseq import exactmath
from raneyseq.errors import InvalidParameterError

from conftest import (
    binomial_by_products,
    count_classic_motzkin_paths,
    count_kary_trees_brute,
)


class TestBinomial:
    @pytest.mark.parametrize("n,j,expected", [(4, 2, 6), (7, 0, 1), (1, 1, 1)])
    def test_small_values(self, n, j, expected):
        assert exactmath.binomial(n, j) == expected

    def test_zero_outside_range(self):
        assert exactmath.binomial(5, -1) == 0
        assert exactmath.binomial(5, 6) == 0

    def test_against_product_oracle(self):
        # frozen from the product oracle
        assert binomial_by_products(39, 7) == 15380937
        assert exactmath.binomial(39, 7) == 15380937
        for n in range(0, 30):
            for j in range(0, n + 1):
                assert exactmath.binomial(n, j) == binomial_by_products(n, j)

    def test_negative_n_rejected(self):
        with pytest.raises(InvalidParameterError):
            exactmath.binomial(-1, 0)


def _factored_from(n: int) -> int:
    """Smallest m with m * m >= _FACTORED_FROM * n: the first min(j, n - j)
    that binomial(n, j) computes from the prime factorization."""
    return math.isqrt(exactmath._FACTORED_FROM * n - 1) + 1


class TestFactoredBinomial:
    @pytest.mark.parametrize("n", [2700, 7919, 30000])
    def test_around_the_crossover(self, n, monkeypatch):
        sieved = []
        primes_upto = exactmath._primes_upto
        monkeypatch.setattr(exactmath, "_primes_upto",
                            lambda top: sieved.append(top) or primes_upto(top))
        m0 = _factored_from(n)
        for m in (m0 - 1, m0, m0 + 1):
            expected = math.comb(n, m)
            assert binomial_by_products(n, m) == expected
            assert exactmath.binomial(n, m) == expected
            assert exactmath.binomial(n, n - m) == expected
        # math.comb below the crossover, the factorization from it on
        assert sieved == [n] * 4

    @pytest.mark.parametrize("n,j", [
        (30000, 15000),             # central
        (30001, 15000),
        (20011, 13000),             # prime n, j > n / 2
        (2 ** 14, 2 ** 13),         # a high power of 2 in n and j
        (2 ** 14, 2 ** 13 - 1),
        (2 ** 15, 2 ** 14 + 3),
        (3 ** 9, 3 ** 8),
    ])
    def test_special_arguments(self, n, j):
        assert min(j, n - j) >= _factored_from(n)
        expected = math.comb(n, j)
        assert exactmath.binomial(n, j) == expected
        assert binomial_by_products(n, j) == expected

    def test_seeded_random_grid(self):
        rng = random.Random(20260418)
        for _ in range(60):
            n = rng.randrange(1, 30001)
            j = rng.randrange(n + 1)
            assert exactmath.binomial(n, j) == math.comb(n, j)

    def test_borrows_are_kummer_exponents(self):
        for p in (2, 3, 5, 7):
            for n in range(60):
                for j in range(n + 1):
                    value, exponent = math.comb(n, j), 0
                    while value % p == 0:
                        value //= p
                        exponent += 1
                    assert exactmath._borrows(n, j, p) == exponent


class TestFussCatalan:
    def test_paper_values(self):
        assert exactmath.fuss_catalan(3, 1) == 1
        assert exactmath.fuss_catalan(3, 2) == 3

    @pytest.mark.parametrize("k", range(2, 7))
    def test_n_zero(self, k):
        assert exactmath.fuss_catalan(k, 0) == 1

    def test_ternary_three_nodes(self):
        # 12, frozen from the brute-force tree-count oracle
        assert count_kary_trees_brute(3, 3) == 12
        assert exactmath.fuss_catalan(3, 3) == 12

    def test_matches_brute_force(self):
        for k in (2, 3, 4):
            for n in range(8):
                assert exactmath.fuss_catalan(k, n) == count_kary_trees_brute(k, n)

    def test_invalid_k(self):
        with pytest.raises(InvalidParameterError):
            exactmath.fuss_catalan(1, 3)


class TestFussCatalanRec:
    def test_catalan_case(self):
        assert exactmath.fuss_catalan_rec(2, 4) == 14

    @pytest.mark.parametrize("k", range(2, 7))
    def test_base_case(self, k):
        assert exactmath.fuss_catalan_rec(k, 0) == 1

    @pytest.mark.parametrize("k", range(2, 7))
    @pytest.mark.parametrize("n", range(13))
    def test_agrees_with_closed_form(self, k, n):
        assert exactmath.fuss_catalan_rec(k, n) == exactmath.fuss_catalan(k, n)

    # A recursive version ran out of stack already near n = 150.
    @pytest.mark.parametrize("k,n", [(2, 1000), (3, 500)])
    def test_large_n(self, k, n):
        assert exactmath.fuss_catalan_rec(k, n) == exactmath.fuss_catalan(k, n)


class TestRaney:
    def test_paper_values(self):
        assert exactmath.raney(3, 1, 2) == 3
        assert exactmath.raney(3, 2, 1) == 2
        assert exactmath.raney(3, 2, 2) == 7

    @pytest.mark.parametrize("k,r", [(2, 1), (3, 2), (5, 7)])
    def test_empty_tuple(self, k, r):
        assert exactmath.raney(k, r, 0) == 1

    # fuss_catalan is raney at r = 1, so the Fuss-Catalan closed form
    # C(kn, n) / ((k-1)n + 1) is written out here with math.comb.
    def test_r_one_is_fuss_catalan(self):
        for k in range(2, 6):
            for n in range(11):
                expected, rem = divmod(math.comb(k * n, n), (k - 1) * n + 1)
                assert rem == 0
                assert exactmath.raney(k, 1, n) == expected
                assert exactmath.fuss_catalan(k, n) == expected

    def test_invalid_r(self):
        with pytest.raises(InvalidParameterError):
            exactmath.raney(3, 0, 2)

    # r * C(kn + r - 1, n) / ((k - 1) n + r) with math.comb, so the large-n
    # answer is checked without exactmath.binomial.
    @pytest.mark.parametrize("k,r,n", [(3, 2, 20000), (3, 4, 19999)])
    def test_large_n(self, k, r, n):
        expected, rem = divmod(r * math.comb(k * n + r - 1, n), (k - 1) * n + r)
        assert rem == 0
        assert exactmath.raney(k, r, n) == expected


class TestCheckKnr:
    def test_r_zero_named_at_n_zero(self):
        # n = 0 is in range, so the message names r, not n
        with pytest.raises(InvalidParameterError,
                           match="^a tuple needs r >= 1 trees$"):
            exactmath.check_knr(2, 0, 0)


class TestRaneyConvolution:
    def test_paper_value(self):
        assert exactmath.raney_convolution(3, 2, 2) == 7

    def test_degenerate_r_one(self):
        for k in (2, 3, 4):
            for n in range(8):
                assert exactmath.raney_convolution(k, 1, n) == \
                    exactmath.fuss_catalan(k, n)

    def test_invalid_r(self):
        with pytest.raises(InvalidParameterError, match="r >= 1"):
            exactmath.raney_convolution(2, 0, 3)

    def test_known_cell(self):
        # 612, frozen from the closed form checked against the tree-tuple
        # enumeration in test_trees
        assert exactmath.raney_convolution(4, 3, 4) == 612
        assert exactmath.raney(4, 3, 4) == 612

    @pytest.mark.parametrize("k", range(2, 7))
    def test_agrees_with_closed_form(self, k):
        for r in range(1, 2 * k + 1):
            for n in range(11):
                assert exactmath.raney_convolution(k, r, n) == \
                    exactmath.raney(k, r, n)


class TestMotzkin:
    def test_paper_value(self):
        assert exactmath.motzkin(4) == 9

    def test_empty_path(self):
        assert exactmath.motzkin(0) == 1

    def test_negative_n_rejected(self):
        with pytest.raises(InvalidParameterError, match="n >= 0"):
            exactmath.motzkin(-1)

    def test_against_dfs_oracle(self):
        # M_6 = 51, frozen from the DFS oracle
        assert count_classic_motzkin_paths(6) == 51
        assert exactmath.motzkin(6) == 51
        for n in range(10):
            assert exactmath.motzkin(n) == count_classic_motzkin_paths(n)


@pytest.fixture
def no_digit_cap():
    """Lift the interpreter's int-to-str digit cap (3.10.7 on), so that
    str(int) can serve as the reference at any length."""
    saved = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if saved:
        sys.set_int_max_str_digits(0)
    yield
    if saved:
        sys.set_int_max_str_digits(saved)


@pytest.mark.usefixtures("no_digit_cap")
class TestDecimalText:
    @pytest.mark.parametrize("value", [0, 1, -1, -7, 10, -10, -(2 ** 200 + 5)])
    def test_small_and_negative(self, value):
        assert exactmath.decimal_text(value) == str(value)

    # Both sides of the 128-bit base case.
    @pytest.mark.parametrize("value", [2 ** 128 - 1, 2 ** 128, 2 ** 129])
    def test_around_the_base_case(self, value):
        assert exactmath.decimal_text(value) == str(value)
        assert exactmath.decimal_text(-value) == str(-value)

    @pytest.mark.parametrize("m", [1, 38, 39, 100, 1000, 4300, 4301, 20000])
    def test_around_powers_of_ten(self, m):
        for value in (10 ** m - 1, 10 ** m, 10 ** m + 1):
            assert exactmath.decimal_text(value) == str(value)

    def test_seeded_random_lengths(self):
        rng = random.Random(10)
        for e in range(20):  # bit lengths up to 2**20, about 10**6
            bits = rng.randrange(2 ** e, 2 ** (e + 1))
            value = rng.getrandbits(bits) | 1 << (bits - 1)
            value = -value if rng.randrange(2) else value
            assert exactmath.decimal_text(value) == str(value)

    # A float, a bool or a str has no digits to write; each is refused
    # rather than ending in an AttributeError or printed as 1.
    @pytest.mark.parametrize("value", [2.0, True, "7", None])
    def test_not_an_int(self, value):
        with pytest.raises(InvalidParameterError, match="takes an int"):
            exactmath.decimal_text(value)
