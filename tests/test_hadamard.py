import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capsep
from capsep.errors import ConstructionError, InvalidParameterError
from capsep.hadamard import double, find_hadamard, normalize, paley_one, sylvester
from conftest import normalize_by_loop


def assert_hadamard(h):
    m = h.size
    assert (h.entries @ h.entries.T == m * np.eye(m, dtype=np.int64)).all()


class TestSylvester:
    def test_k0(self):
        assert sylvester(0).entries.tolist() == [[1]]

    def test_k1(self):
        assert sylvester(1).entries.tolist() == [[1, 1], [1, -1]]

    def test_k2_product(self):
        h = sylvester(2)
        assert (h.entries @ h.entries.T == 4 * np.eye(4, dtype=np.int64)).all()

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
        h = paley_one(q)
        assert h.size == q + 1
        assert_hadamard(h)

    @pytest.mark.parametrize("q", [5, 13, 9, 15, 2, 1])
    def test_rejects_bad_q(self, q):
        with pytest.raises(ConstructionError):
            paley_one(q)


class TestNormalize:
    def test_idempotent(self):
        h = normalize(paley_one(11))
        again = normalize(h)
        assert np.array_equal(h.entries, again.entries)
        assert h.is_normalized()

    def test_sylvester_already_normalized(self):
        for k in range(5):
            h = sylvester(k)
            assert h.is_normalized()
            assert np.array_equal(normalize(h).entries, h.entries)

    def test_negated_first_row_restored(self):
        e = sylvester(2).entries.copy()
        e[0] = -e[0]
        flipped = capsep.HadamardMatrix(e)
        fixed = normalize(flipped)
        assert fixed.is_normalized()
        assert_hadamard(fixed)

    def test_row_sign_counts_up_to_256(self):
        sizes = []
        for k in range(2, 9):
            sizes.append(sylvester(k))
        for q in (3, 7, 11, 19, 43):
            sizes.append(paley_one(q))
        for h in sizes:
            m = h.size
            e = normalize(h).entries
            neg = (e[1:] == -1).sum(axis=1)
            assert (neg == m // 2).all()
            for i in range(1, m):
                diff = (e[i:] != e[i - 1]).sum(axis=1)[1:]
                assert (diff == m // 2).all()


    def test_matches_the_loop_on_sign_flips(self):
        rng = np.random.default_rng(0)
        orders = [m for m in range(1, 400) if find_hadamard(m) is not None][:60]
        assert len(orders) == 60
        for m in orders:
            e = find_hadamard(m).entries
            for _ in range(3):
                flipped = capsep.HadamardMatrix(e * rng.choice([-1, 1], size=(m, 1))
                                                * rng.choice([-1, 1], size=(1, m)))
                assert np.array_equal(normalize(flipped).entries,
                                      normalize_by_loop(flipped))


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


class TestExportAndChecks:
    def test_text_and_json(self):
        h = sylvester(1)
        assert h.to_json() == {"size": 2, "rows": ["++", "+-"]}

    def test_rejects_non_hadamard(self):
        with pytest.raises(ConstructionError):
            capsep.HadamardMatrix(np.ones((3, 3), dtype=np.int64))
        with pytest.raises(ConstructionError):
            capsep.HadamardMatrix(np.array([[1, 2], [1, -1]]))

    # An order-1 matrix stays Hadamard with its sign flipped, so k starts at 1.
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(),
           h=st.sampled_from([sylvester(k) for k in range(1, 6)]
                             + [paley_one(q) for q in (3, 7, 11, 19, 23, 43)]))
    def test_rejects_one_flipped_sign(self, data, h):
        i = data.draw(st.integers(0, h.size - 1), label="row")
        j = data.draw(st.integers(0, h.size - 1), label="column")
        e = h.entries.copy()
        e[i, j] *= -1
        with pytest.raises(ConstructionError, match="not orthogonal"):
            capsep.HadamardMatrix(e)

    def test_double_preserves_property(self):
        assert_hadamard(double(paley_one(3)))
