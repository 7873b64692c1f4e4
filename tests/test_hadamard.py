import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capsep
from capsep.errors import ConstructionError, InvalidParameterError, ResourceLimitError
from capsep.geometry import hadamard_clique
from capsep.hadamard import HadamardMatrix, _paley_rows, find_hadamard, sylvester
from conftest import (hadamard_by_doubling, normalize_by_loop, normalized, paley_by_loop,
                      sign_matrix, word_of_signs)


def assert_hadamard(h):
    m, e = h.size, sign_matrix(h.rows)
    assert (e @ e.T == m * np.eye(m, dtype=np.int64)).all()


def words(e) -> list[int]:
    return [word_of_signs(row) for row in e.tolist()]


def paley(q: int) -> HadamardMatrix:
    """The Paley matrix of q, as ``find_hadamard(q + 1)`` builds it."""
    h = find_hadamard(q + 1)
    assert h.construction == f"paley({q})"
    return h


def is_normalized(e) -> bool:
    return bool((e[0] == 1).all() and (e[:, 0] == 1).all())


class TestSylvester:
    def test_k0(self):
        assert sylvester(0).rows == (0,)

    def test_k1(self):
        assert sylvester(1).rows == (0b00, 0b01)
        assert sign_matrix(sylvester(1).rows).tolist() == [[1, 1], [1, -1]]

    def test_k2_product(self):
        e = sign_matrix(sylvester(2).rows)
        assert (e @ e.T == 4 * np.eye(4, dtype=np.int64)).all()

    def test_order_1024_sums_past_uint8(self):
        # 16 limbs: a pair's distance 512 wraps to 0 in bitwise_count's uint8
        h = sylvester(10)
        assert np.array_equal(sign_matrix(h.rows), hadamard_by_doubling(1024)[0])

    @pytest.mark.parametrize("k", range(9))
    def test_orthogonality_through_k8(self, k):
        assert_hadamard(sylvester(k))

    @pytest.mark.parametrize("k", [-1, 13])
    def test_rejects_out_of_range(self, k):
        with pytest.raises(InvalidParameterError):
            sylvester(k)


class TestPaley:
    @pytest.mark.parametrize("q", [3, 7, 11, 19, 43, 163])
    def test_valid_primes(self, q):
        # at q = 3 and 7 find_hadamard picks Sylvester: the core is checked on its own
        h = paley(q) if q > 7 else HadamardMatrix(_paley_rows(q))
        assert h.size == q + 1
        assert_hadamard(h)
        assert np.array_equal(sign_matrix(h.rows), paley_by_loop(q))

    @pytest.mark.parametrize("q", [5, 13, 9, 15, 2, 1])
    def test_rejects_bad_q(self, q):
        # not a prime 3 mod 4: find_hadamard never builds paley(q)
        h = find_hadamard(q + 1)
        assert h is None or h.construction.startswith("sylvester")


class TestNormalize:
    def test_idempotent(self):
        h = HadamardMatrix(words(normalized(paley(11))))
        again = normalized(h)
        assert np.array_equal(sign_matrix(h.rows), again)
        assert is_normalized(again)

    def test_sylvester_already_normalized(self):
        for k in range(5):
            e = sign_matrix(sylvester(k).rows)
            assert is_normalized(e)
            assert np.array_equal(normalized(sylvester(k)), e)

    def test_negated_first_row_restored(self):
        e = sign_matrix(sylvester(2).rows)
        e[0] = -e[0]
        flipped = capsep.HadamardMatrix(words(e))
        fixed = HadamardMatrix(words(normalized(flipped)))
        assert is_normalized(sign_matrix(fixed.rows))
        assert_hadamard(fixed)

    def test_row_sign_counts_up_to_256(self):
        sizes = []
        for k in range(2, 9):
            sizes.append(sylvester(k))
        for q in (11, 19, 43):
            sizes.append(paley(q))
        for h in sizes:
            m = h.size
            e = normalized(h)
            neg = (e[1:] == -1).sum(axis=1)
            assert (neg == m // 2).all()
            for i in range(1, m):
                diff = (e[i:] != e[i - 1]).sum(axis=1)[1:]
                assert (diff == m // 2).all()


    def test_matches_the_loop_on_sign_flips(self):
        rng = np.random.default_rng(0)
        orders = [m for m in range(1, 400) if find_hadamard(m) is not None]
        assert len(orders) == 62
        for m in orders:
            e = sign_matrix(find_hadamard(m).rows)
            for _ in range(3):
                flipped = capsep.HadamardMatrix(words(e * rng.choice([-1, 1], size=(m, 1))
                                                      * rng.choice([-1, 1], size=(1, m))))
                assert np.array_equal(normalized(flipped), normalize_by_loop(flipped))
                if m >= 4:
                    assert hadamard_clique(flipped, "G") == words(normalize_by_loop(flipped))[1:]


class TestFindHadamard:
    def test_prefers_sylvester(self):
        assert find_hadamard(4).construction == "sylvester(2)"

    def test_paley_sizes(self):
        assert find_hadamard(12).construction == "paley(11)"
        assert find_hadamard(20).construction == "paley(19)"
        assert find_hadamard(164).construction == "paley(163)"

    def test_doubled_paley(self):
        # 39 is not prime, but 40 = 2 * (19 + 1)
        h = find_hadamard(40)
        assert h is not None and h.size == 40
        assert "paley(19)" in h.construction
        assert_hadamard(h)

    def test_paley_preferred_over_doubling(self):
        assert find_hadamard(24).construction == "paley(23)"

    def test_uncovered_size(self):
        assert find_hadamard(28) is None  # 27 = 3^3 is a prime power, not prime

    def test_small_sizes(self):
        assert find_hadamard(1).size == 1
        assert find_hadamard(2).size == 2

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidParameterError):
            find_hadamard(0)

    def test_matches_stepwise_doubling_below_400(self):
        covered = 0
        for m in range(1, 400):
            h, oracle = find_hadamard(m), hadamard_by_doubling(m)
            assert (h is None) == (oracle is None), m
            if h is not None:
                covered += 1
                assert np.array_equal(sign_matrix(h.rows), oracle[0]), m
                assert h.construction == oracle[1]
        assert covered == 62
        assert find_hadamard(176).construction == "double(double(paley(43)))"

    def test_doubling_past_one_construction_is_refused_unbuilt(self, monkeypatch):
        def refuse(q):
            raise AssertionError(f"built a Paley matrix for q = {q}")

        monkeypatch.setattr(capsep.hadamard, "_paley_rows", refuse)
        for m in (12288, 16384, 1048576):  # paley(6143) doubled once, paley(8191) 1 and 7 times
            with pytest.raises(ResourceLimitError, match="exceeds the cap 10001"):
                find_hadamard(m)
        assert find_hadamard(20002) is None  # 10001 = 73 * 137: no construction

    def test_each_matrix_is_proved_once(self, monkeypatch):
        proved = []
        init = HadamardMatrix.__init__

        def counted(self, *args, **kwargs):
            proved.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(HadamardMatrix, "__init__", counted)
        for m in (4, 12, 40, 176):
            proved.clear()
            h = find_hadamard(m)
            assert len(proved) == 1 and proved[0] is h
            for family in "GH":
                hadamard_clique(h, family)
            assert len(proved) == 1


class TestExportAndChecks:
    def test_text_and_json(self):
        h = sylvester(1)
        assert h.to_json() == {"size": 2, "rows": ["++", "+-"]}

    def test_rejects_non_hadamard(self):
        with pytest.raises(ConstructionError, match="not orthogonal"):
            capsep.HadamardMatrix([0, 0, 0])
        with pytest.raises(ConstructionError, match="not orthogonal"):
            capsep.HadamardMatrix([0b0000, 0b0101, 0b0011, 0b0111])

    @pytest.mark.parametrize("rows, match", [
        ([0b00, 0b00], "not orthogonal"),  # a duplicate row
        ([0, 1, 2], "not orthogonal"),  # odd order 3
        ([0b00, 0b101], "row 1 is not a 2-bit word"),  # too wide
        ([0b00, -1], "row 1 is not a 2-bit word"),
        ([0b00, True], "row 1 is not a 2-bit word"),
        ([np.uint64(0), 1], "row 0 is not a 2-bit word"),
        ([0.0, 1], "row 0 is not a 2-bit word"),
    ], ids=["duplicate", "odd", "wide", "negative", "bool", "numpy", "float"])
    def test_refuses_rows(self, rows, match):
        with pytest.raises(ConstructionError, match=match):
            HadamardMatrix(rows)

    @pytest.mark.parametrize("rows", [[0], [1], [0b00, 0b01], [0b11, 0b01], [0b10, 0b00]])
    def test_orders_1_and_2_pass(self, rows):
        h = HadamardMatrix(rows)
        assert h.rows == tuple(rows) and h.size == len(rows)
        assert_hadamard(h)

    # An order-1 matrix stays Hadamard with its sign flipped, so k starts at 1.
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(),
           h=st.sampled_from([sylvester(k) for k in range(1, 6)]
                             + [paley(q) for q in (11, 19, 23, 43)]))
    def test_rejects_one_flipped_sign(self, data, h):
        i = data.draw(st.integers(0, h.size - 1), label="row")
        j = data.draw(st.integers(0, h.size - 1), label="column")
        rows = list(h.rows)
        rows[i] ^= 1 << h.size - 1 - j
        with pytest.raises(ConstructionError, match="not orthogonal"):
            capsep.HadamardMatrix(rows)

    def test_checked_in_row_blocks(self, monkeypatch):
        monkeypatch.setattr(capsep.bitgraph, "BLOCK_ENTRIES", 5 * 44)  # 5-row blocks
        rows = paley(43).rows
        HadamardMatrix(rows)  # each block masks its own diagonal cells
        for i, j in [(0, 0), (7, 30), (43, 43), (22, 5)]:
            flipped = list(rows)
            flipped[i] ^= 1 << 43 - j
            with pytest.raises(ConstructionError, match="not orthogonal"):
                HadamardMatrix(flipped)
        duplicate = list(rows)
        duplicate[30] = rows[7]  # (7, 30) is the one bad pair, across two blocks
        with pytest.raises(ConstructionError, match="not orthogonal"):
            HadamardMatrix(duplicate)

    def test_double_preserves_property(self):
        h = find_hadamard(176)
        assert h.construction == "double(double(paley(43)))"
        assert_hadamard(h)
