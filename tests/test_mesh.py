import numpy as np
import pytest

from haarmc.mesh import (
    Box,
    HaarMesh,
    SimplicialMesh,
    build_hierarchy,
    build_uniform_mesh,
    cell_volumes,
    is_nested,
    vertex_injection_map,
    write_mesh,
)
import oracles
from oracles import haar_cell_index, haar_cell_midpoint, read_mesh

UNIT1 = Box((0.0,), (1.0,))
UNIT2 = Box((0.0, 0.0), (1.0, 1.0))
BIG2 = Box((-1.0, -1.0), (1.0, 1.0))


def test_box_validation():
    with pytest.raises(ValueError):
        Box((0.0, 0.0), (1.0, 0.0))


def test_uniform_1d_two_cells():
    mesh = build_uniform_mesh(UNIT1, 1, 2)
    assert mesh.n_vertices == 3
    assert mesh.n_cells == 2
    np.testing.assert_allclose(np.sort(mesh.vertices.ravel()), [0.0, 0.5, 1.0])


def test_uniform_2d_counts_and_area():
    mesh = build_uniform_mesh(BIG2, 2, 2)
    assert mesh.n_vertices == 9
    assert mesh.n_cells == 8
    assert cell_volumes(mesh).sum() == pytest.approx(4.0, rel=1e-12)


@pytest.mark.parametrize("dim,n", [(1, 1), (1, 7), (2, 1), (2, 5)])
def test_volume_conservation(dim, n):
    box = BIG2 if dim == 2 else Box((-1.0,), (1.0,))
    mesh = build_uniform_mesh(box, dim, n)
    vols = cell_volumes(mesh)
    assert np.all(vols > 0)
    assert vols.sum() == pytest.approx(box.volume, rel=1e-12)


def test_boundary_vertices_exact():
    mesh = build_uniform_mesh(UNIT2, 2, 3)
    on_bdry = {
        i
        for i, v in enumerate(mesh.vertices)
        if np.any(np.isclose(v, 0.0)) or np.any(np.isclose(v, 1.0))
    }
    assert set(mesh.boundary_vertices) == on_bdry


def test_interior_vertex_degree_six():
    mesh = build_uniform_mesh(UNIT2, 2, 4, diagonal="right")
    degree = np.zeros(mesh.n_vertices, dtype=int)
    for cell in mesh.cells:
        degree[list(cell)] += 1
    for i in mesh.interior_vertices:
        assert degree[i] == 6


@pytest.mark.parametrize("dim,level", [(1, -1), (1, 0), (1, 3), (2, -1), (2, 2)])
def test_haar_mesh_cell_counts(dim, level):
    box = BIG2 if dim == 2 else Box((-1.0,), (1.0,))
    haar = HaarMesh(level, dim, box)
    assert haar.n_cells == 2 ** (dim * (level + 1))
    assert haar.cell_volume == pytest.approx(
        box.volume * 2.0 ** (-dim * (level + 1)), rel=1e-12
    )


def test_haar_mesh_rejects_bad_level():
    with pytest.raises(ValueError):
        HaarMesh(-2, 1, UNIT1)


def test_haar_cell_index_examples():
    h1 = HaarMesh(0, 1, UNIT1)
    assert haar_cell_index(h1, np.array([[0.3]]))[0] == 0

    h2 = HaarMesh(3, 2, UNIT2)
    top = haar_cell_index(h2, np.array([[1.0, 1.0]]))[0]
    assert top == h2.n_cells - 1
    np.testing.assert_allclose(
        haar_cell_midpoint(h2, top)[0], [1 - 1 / 32, 1 - 1 / 32], atol=1e-14
    )

    h3 = HaarMesh(1, 2, UNIT2)
    k = haar_cell_index(h3, np.array([[0.7, 0.2]]))[0]
    np.testing.assert_allclose(haar_cell_midpoint(h3, k)[0], [0.625, 0.125], atol=1e-14)


def test_haar_cell_index_outside():
    haar = HaarMesh(0, 1, UNIT1)
    with pytest.raises(ValueError):
        haar_cell_index(haar, np.array([[1.5]]))


def test_haar_cell_midpoint_examples():
    assert float(haar_cell_midpoint(HaarMesh(-1, 1, UNIT1), 0)[0, 0]) == pytest.approx(0.5)
    np.testing.assert_allclose(
        haar_cell_midpoint(HaarMesh(0, 2, UNIT2), 0)[0], [0.25, 0.25], atol=1e-15
    )
    assert float(haar_cell_midpoint(HaarMesh(1, 1, UNIT1), 3)[0, 0]) == pytest.approx(0.875)
    with pytest.raises(IndexError):
        haar_cell_midpoint(HaarMesh(0, 1, UNIT1), 2)


@pytest.mark.parametrize("dim,level", [(1, 2), (2, 1), (2, 2)])
def test_haar_index_midpoint_round_trip(dim, level):
    box = BIG2 if dim == 2 else Box((-1.0,), (1.0,))
    haar = HaarMesh(level, dim, box)
    mids = haar_cell_midpoint(haar, np.arange(haar.n_cells))
    np.testing.assert_array_equal(haar_cell_index(haar, mids), np.arange(haar.n_cells))


def test_vertex_injection_exact():
    g = build_uniform_mesh(Box((-0.5, -0.5), (0.5, 0.5)), 2, 2)
    d = build_uniform_mesh(BIG2, 2, 4)
    vmap = vertex_injection_map(g, d)
    np.testing.assert_array_equal(d.vertices[vmap], g.vertices)


def test_vertex_injection_raises_on_mismatch():
    g = build_uniform_mesh(Box((-0.5, -0.5), (0.5, 0.5)), 2, 3)
    d = build_uniform_mesh(BIG2, 2, 4)
    with pytest.raises(ValueError):
        vertex_injection_map(g, d)


def test_is_nested_depends_on_diagonal():
    g = build_uniform_mesh(Box((-0.5, -0.5), (0.5, 0.5)), 2, 2, diagonal="right")
    d_same = build_uniform_mesh(BIG2, 2, 4, diagonal="right")
    d_flip = build_uniform_mesh(BIG2, 2, 4, diagonal="left")
    assert is_nested(g, d_same)
    assert not is_nested(g, d_flip)


def test_hierarchy_nesting_and_alternation():
    g_box = Box((-0.5, -0.5), (0.5, 0.5))
    hier = build_hierarchy(g_box, BIG2, 2, [1, 2, 3], [0, 1, 1])
    for g, d, haar in hier.levels:
        assert is_nested(g, d)
        assert haar.box == BIG2
    # consecutive outer meshes use opposite diagonals, so they never nest
    for (_, d0, _), (_, d1, _) in zip(hier.levels, hier.levels[1:]):
        assert not is_nested(d0, d1)


def test_hierarchy_rejects_decreasing_haar_levels():
    g_box = Box((-0.5,), (0.5,))
    with pytest.raises(ValueError):
        build_hierarchy(g_box, Box((-1.0,), (1.0,)), 1, [1, 2], [2, 1])


def test_hierarchy_rejects_misaligned_lists():
    g_box = Box((-0.5,), (0.5,))
    with pytest.raises(ValueError):
        build_hierarchy(g_box, Box((-1.0,), (1.0,)), 1, [1, 2], [0])


@pytest.mark.parametrize("dim,n", [(1, 4), (2, 3)])
def test_mesh_io_round_trip(tmp_path, dim, n):
    box = BIG2 if dim == 2 else Box((-1.0,), (1.0,))
    mesh = build_uniform_mesh(box, dim, n)
    path = tmp_path / "mesh.txt"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert back.dim == mesh.dim
    np.testing.assert_allclose(back.vertices, mesh.vertices, atol=1e-15)
    np.testing.assert_array_equal(back.cells, mesh.cells)
    assert set(back.boundary_vertices) == set(mesh.boundary_vertices)


@pytest.mark.parametrize("diagonal", ["right", "left"])
@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_uniform_mesh_cells_match_square_loop(n, diagonal):
    box = Box((-0.5, -1.0), (1.5, 0.25))
    mesh = build_uniform_mesh(box, 2, n, diagonal=diagonal)
    cells = oracles.uniform_mesh_cells_2d(n, diagonal)
    ref = SimplicialMesh(2, mesh.vertices.copy(), cells, mesh.boundary_vertices)
    assert mesh.cells.dtype == ref.cells.dtype
    np.testing.assert_array_equal(mesh.cells, ref.cells)
    V = mesh.vertices
    on_bd = np.isclose(V, box.lo).any(axis=1) | np.isclose(V, box.hi).any(axis=1)
    np.testing.assert_array_equal(mesh.boundary_vertices, np.nonzero(on_bd)[0])
