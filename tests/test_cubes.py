import pytest

from comtes.core import validate_graph
from comtes.cubes import build_Yn, face_map, word_name
from reference import is_homomorphism


class TestCubeConstruction:
    def test_y1(self):
        y = build_Yn(1)
        assert y.graph.vertices == ("1",) and y.graph.arrows == ()

    def test_y3_labels(self):
        y = build_Yn(3)
        cube3 = sorted(w for w in y.vertex_words if w[-1] == 3)
        assert cube3 == [(1, 2, 3), (1, 3), (2, 3), (3,)]
        labels = sorted(lab for (src, _), lab in zip(y.arrow_data, y.arrow_words) if src[-1] == 3)
        assert labels == [(1,), (1,), (1, 2), (2,)]

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            build_Yn(-1)

    def test_cube_sizes(self):
        for n in range(1, 7):
            y = build_Yn(n)
            for m in range(1, n + 1):
                nv = sum(1 for w in y.vertex_words if w[-1] == m)
                na = sum(1 for (src, _) in y.arrow_data if src[-1] == m)
                assert nv == 2 ** (m - 1)
                assert na == (m - 1) * 2 ** (m - 2) if m >= 2 else na == 0

    def test_self_indexed_structure_well_defined(self):
        for n in range(1, 6):
            y = build_Yn(n)
            assert validate_graph(y.graph).ok
            assert len(set(y.vertex_words)) == len(y.vertex_words)
            # every arrow label is the word of exactly one vertex
            vwords = set(y.vertex_words)
            for lab in y.arrow_words:
                assert lab in vwords


class TestFaces:
    def test_d21_into_y4(self):
        vm = dict(zip(build_Yn(3).graph.vertices, face_map(4, 2, 1).vertex_images))
        assert vm["3"] == "2.4"
        assert vm["1.3"] == "1.2.4"
        assert vm["2.3"] == "2.3.4"
        assert vm["1.2.3"] == "1.2.3.4"
        # it sends y_2 to the top face of y_3 and y_1 to itself
        assert vm["2"] == "2.3" and vm["1.2"] == "1.2.3"
        assert vm["1"] == "1"

    def test_faces_are_homomorphisms(self):
        for n in range(2, 6):
            for s in range(1, n):
                for eps in (0, 1):
                    h = face_map(n, s, eps)
                    assert is_homomorphism(h, build_Yn(n - 1).graph, build_Yn(n).graph)

    def test_faces_are_injective(self):
        for n in range(2, 6):
            for s in range(1, n):
                for eps in (0, 1):
                    h = face_map(n, s, eps)
                    assert len(set(h.vertex_images)) == len(h.vertex_images)
                    assert len(set(h.arrow_map)) == len(h.arrow_map)

    @pytest.mark.parametrize("n, s", [(3, 0), (3, 3), (1, 1)])
    def test_face_index_out_of_range(self, n, s):
        with pytest.raises(ValueError, match="out of range"):
            face_map(n, s, 0)


def test_word_name():
    assert word_name((1, 2, 3)) == "1.2.3"
    assert word_name((10,)) == "10"
