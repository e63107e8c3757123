import json
import math

import numpy as np
import pytest

import fractal_tiling_lab as ftl
from fractal_tiling_lab.errors import ConfigError
from fractal_tiling_lab.ifs import Word, load_ifs, rotation, words_up_to_ratio
from fractal_tiling_lab.presets import (
    cantor_ifs,
    cantor_pair_ifs,
    carpet_ifs,
    gasket_ifs,
    koch_ifs,
)


def interval_ifs(*ratios):
    return ftl.IFS(
        tuple(ftl.Similarity(r, np.eye(1), np.array([float(i)])) for i, r in enumerate(ratios)),
        1,
    )


def bisect_dimension_oracle(ratios, lo=0.0, hi=4.0, iters=200):
    """Independent bisection on sum r^s = 1 (no Newton, no library solver)."""
    rs = np.asarray(ratios)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.sum(rs**mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestSimilarityDimension:
    def test_carpet_closed_form(self):
        assert abs(ftl.similarity_dimension(carpet_ifs()) - math.log(8) / math.log(3)) < 1e-10

    def test_cantor_closed_form(self):
        assert abs(ftl.similarity_dimension(cantor_ifs()) - math.log(2) / math.log(3)) < 1e-10

    def test_half_quarter_against_bisection_oracle(self):
        ifs = cantor_pair_ifs()
        oracle = bisect_dimension_oracle([0.5, 0.25])
        # closed form: x + x^2 = 1 with x = (1/2)^D
        closed = math.log(2 / (math.sqrt(5) - 1), 2)
        assert abs(oracle - closed) < 1e-9
        assert abs(ftl.similarity_dimension(ifs) - oracle) < 1e-9

    def test_koch_and_gasket(self):
        assert abs(ftl.similarity_dimension(koch_ifs()) - math.log(4) / math.log(3)) < 1e-10
        assert abs(ftl.similarity_dimension(gasket_ifs()) - math.log(3) / math.log(2)) < 1e-10

    def test_residual_bound_on_presets(self):
        for ifs in (cantor_ifs(), carpet_ifs(), koch_ifs(), gasket_ifs(), cantor_pair_ifs()):
            D = ftl.similarity_dimension(ifs)
            assert abs(np.sum(ifs.ratios**D) - 1.0) <= 1e-12


class TestEta:
    def test_cantor(self):
        assert abs(ftl.eta(cantor_ifs(), math.log(2) / math.log(3)) - math.log(3)) < 1e-12

    def test_carpet(self):
        assert abs(ftl.eta(carpet_ifs(), math.log(8) / math.log(3)) - math.log(3)) < 1e-12

    def test_half_quarter_direct_summation(self):
        ifs = cantor_pair_ifs()
        D = ftl.similarity_dimension(ifs)
        expected = 0.5**D * math.log(2) + 0.25**D * math.log(4)
        assert abs(ftl.eta(ifs, D) - expected) < 1e-12
        assert ftl.eta(ifs, D) > 0


class TestLattice:
    def test_equal_ratios(self):
        latt, base = ftl.is_lattice(interval_ifs(1 / 3, 1 / 3))
        assert latt and abs(base - math.log(3)) < 1e-9

    def test_half_quarter(self):
        latt, base = ftl.is_lattice(interval_ifs(0.5, 0.25))
        assert latt and abs(base - math.log(2)) < 1e-9

    def test_quarter_eighth_base(self):
        latt, base = ftl.is_lattice(interval_ifs(0.25, 0.125))
        assert latt and abs(base - math.log(2)) < 1e-9

    def test_half_third_nonlattice(self):
        latt, base = ftl.is_lattice(interval_ifs(0.5, 1 / 3))
        assert not latt and base is None

    def test_permutation_invariance(self):
        a = ftl.is_lattice(interval_ifs(0.5, 0.25, 1 / 8))
        b = ftl.is_lattice(interval_ifs(1 / 8, 0.5, 0.25))
        assert a[0] == b[0]
        assert abs(a[1] - b[1]) < 1e-12

    def test_base_divides_word_ratios(self):
        # replacing the IFS by all words of length n keeps the lattice, and
        # the base divides every -ln r_sigma
        ifs = cantor_pair_ifs()
        _, base = ftl.is_lattice(ifs)
        # ratios 1/2 and 1/4: every length-3 word has r_sigma >= 1/64 > 0.01
        words = [w for w in words_up_to_ratio(ifs, 0.01) if len(w) == 3]
        assert len(words) == 2**3
        for w in words:
            mult = -math.log(w.ratio(ifs)) / base
            assert abs(mult - round(mult)) < 1e-9


class TestSimilarityType:
    def test_distance_scaling_random_pairs(self, rng):
        sim = ftl.Similarity(0.6, rotation(37.0), np.array([0.3, -1.2]))
        p = rng.normal(size=(64, 2))
        q = rng.normal(size=(64, 2))
        before = np.linalg.norm(p - q, axis=1)
        after = np.linalg.norm(sim(p) - sim(q), axis=1)
        assert np.allclose(after, 0.6 * before, rtol=1e-12, atol=1e-12)

    def test_ratio_must_contract(self):
        with pytest.raises(ConfigError):
            ftl.Similarity(1.0, np.eye(2), np.zeros(2))
        with pytest.raises(ConfigError):
            ftl.Similarity(0.0, np.eye(2), np.zeros(2))

    def test_orthogonality_enforced(self):
        with pytest.raises(ConfigError):
            ftl.Similarity(0.5, np.array([[1.0, 0.1], [0.0, 1.0]]), np.zeros(2))

    def test_inverse_roundtrip(self, rng):
        sim = ftl.Similarity(1 / 3, rotation(120.0) @ np.diag([1.0, -1.0]), np.array([0.1, 0.7]))
        p = rng.normal(size=(16, 2))
        assert np.allclose(sim.inverse()(sim(p)), p, atol=1e-12)

    def test_ifs_needs_two_maps(self):
        with pytest.raises(ConfigError):
            ftl.IFS((ftl.Similarity(0.5, np.eye(1), np.zeros(1)),), 1)


class TestWords:
    def test_composed_ratio_equals_product(self, rng):
        ifs = cantor_pair_ifs()
        for _ in range(24):
            letters = tuple(rng.integers(0, 2, size=rng.integers(1, 13)))
            w = Word(letters)
            sim = w.map(ifs)
            prod = float(np.prod([ifs.maps[a].ratio for a in letters]))
            assert abs(sim.ratio - prod) < 1e-12
            assert abs(w.ratio(ifs) - prod) < 1e-12


class TestLoadIfs:
    def test_matrix_form(self):
        doc = {
            "dim": 1,
            "maps": [
                {"ratio": 1 / 3, "matrix": [[1.0]], "translation": [0.0]},
                {"ratio": 1 / 3, "matrix": [[1.0]], "translation": [2 / 3]},
            ],
        }
        ifs = load_ifs(doc)
        assert ifs.n == 2 and ifs.ambient_dim == 1
        assert abs(ftl.similarity_dimension(ifs) - math.log(2) / math.log(3)) < 1e-10

    def test_angle_form(self):
        doc = {
            "dim": 2,
            "maps": [
                {"ratio": 0.5, "angle": 90.0, "translation": [0, 0]},
                {"ratio": 0.5, "angle": -90.0, "reflect": True, "translation": [0.5, 0]},
            ],
        }
        ifs = load_ifs(doc)
        q = ifs.maps[0].orthogonal_part
        assert np.allclose(q, [[0, -1], [1, 0]], atol=1e-12)
        assert np.linalg.det(ifs.maps[1].orthogonal_part) < 0  # reflection

    def test_json_text_roundtrip(self):
        text = json.dumps({
            "dim": 1,
            "maps": [
                {"ratio": 0.5, "translation": [0.0]},
                {"ratio": 0.25, "translation": [0.75]},
            ],
        })
        ifs = load_ifs(json.loads(text))
        assert ifs.ratios.tolist() == [0.5, 0.25]

    def test_malformed_rejected(self):
        with pytest.raises(ConfigError):
            load_ifs({"dim": 2, "maps": [{"ratio": 0.5}]})
        with pytest.raises(ConfigError):
            load_ifs({"dim": 1, "maps": [{"ratio": 0.5, "angle": 10, "translation": [0]},
                                         {"ratio": 0.5, "translation": [0.5]}]})
