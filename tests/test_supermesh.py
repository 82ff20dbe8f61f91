"""Geometric kernel checks: clipping, triangulation, and the common
refinements used to split basis supports and couple mesh pairs."""

import csv
import tracemalloc

import numpy as np
import pytest

from haarmc.mesh import (
    Box,
    HaarMesh,
    SimplicialMesh,
    build_hierarchy,
    build_uniform_mesh,
    cell_volumes,
)
from haarmc import supermesh
from haarmc.problem import default_d_box, default_g_box
from haarmc.supermesh import (
    build_supermesh,
    build_three_way_supermesh,
    clip_to_boxes,
    fan_triangulate,
    write_supermesh_csv,
)
import oracles
from oracles import barycentric, haar_cell_index

UNIT1 = Box((0.0,), (1.0,))
UNIT2 = Box((0.0, 0.0), (1.0, 1.0))
BIG1 = Box((-1.0,), (1.0,))
BIG2 = Box((-1.0, -1.0), (1.0, 1.0))

REF_TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def shoelace(poly):
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * (np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def interval_mesh(points):
    pts = np.asarray(points, dtype=float)
    cells = np.column_stack([np.arange(len(pts) - 1), np.arange(1, len(pts))])
    return SimplicialMesh(1, pts[:, None], cells, [0, len(pts) - 1])


def clip_simplex_to_box_cell(simplex, lo, hi):
    """The batched box clip run on a one-polygon batch."""
    simplex = np.asarray(simplex, dtype=float)
    pts, n = clip_to_boxes(
        simplex[None],
        np.array([len(simplex)]),
        np.atleast_1d(np.asarray(lo, dtype=float))[None],
        np.atleast_1d(np.asarray(hi, dtype=float))[None],
    )
    return pts[0, : n[0]]


def triangulate_polygon(poly):
    """The batched fan triangulation run on a one-polygon batch."""
    poly = np.asarray(poly, dtype=float).reshape(-1, 2)
    _, tris = fan_triangulate(poly[None], np.array([len(poly)]))
    return tris


# ---------------------------------------------------------------- clipping


def test_clip_contained_triangle_is_identity():
    poly = clip_simplex_to_box_cell(REF_TRI, (0.0, 0.0), (1.0, 1.0))
    assert len(poly) == 3
    assert shoelace(poly) == pytest.approx(0.5, rel=1e-14)


def test_clip_interval():
    out = clip_simplex_to_box_cell(np.array([[0.0], [1.0]]), (0.25,), (0.5,))
    np.testing.assert_allclose(out, [[0.25], [0.5]])


def test_clip_quarter_square():
    # the half-cell [0, 0.5]^2 lies entirely under the hypotenuse, so the
    # intersection is the square itself
    poly = clip_simplex_to_box_cell(REF_TRI, (0.0, 0.0), (0.5, 0.5))
    assert len(poly) == 4
    assert shoelace(poly) == pytest.approx(0.25, rel=1e-14)


def test_clip_vertical_strip_quadrilateral():
    poly = clip_simplex_to_box_cell(REF_TRI, (0.0, 0.0), (0.5, 1.0))
    assert len(poly) == 4
    assert shoelace(poly) == pytest.approx(3.0 / 8.0, rel=1e-14)


def test_clip_measure_zero_is_empty():
    poly = clip_simplex_to_box_cell(REF_TRI, (1.0, 1.0), (2.0, 2.0))
    assert len(poly) == 0
    # touching along one vertex only
    touch = clip_simplex_to_box_cell(REF_TRI, (1.0, 0.0), (2.0, 1.0))
    assert len(touch) == 0
    # 1D: abutting intervals share one point
    seg = clip_simplex_to_box_cell(np.array([[0.0], [0.5]]), (0.5,), (1.0,))
    assert len(seg) == 0


def test_clip_output_is_ccw():
    poly = clip_simplex_to_box_cell(REF_TRI, (0.1, 0.1), (0.6, 0.8))
    assert shoelace(poly) > 0


@pytest.mark.parametrize("normal,offset", [((1.0, 0.0), 0.5), ((-1.0, 0.0), -0.5)])
def test_halfplane_step_matches_one_polygon_clip(normal, offset):
    """One batch of rows all inside, all outside, cut, and touching the line
    (d == 0 at a vertex): every output row equals the one-polygon clip."""
    polys = [
        [[0.0, 0.0], [0.3, 0.0], [0.0, 0.3]],
        [[0.6, 0.0], [1.0, 0.0], [1.0, 0.4], [0.6, 0.4]],
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
        [[0.1, 0.2], [0.9, 0.1], [1.2, 0.6], [0.7, 1.1], [0.2, 0.9]],
        # touching, with the other vertices on either side
        [[0.5, 0.0], [1.0, 0.5], [0.5, 1.0], [0.0, 0.5]],
        [[0.5, 0.0], [1.0, 1.0], [0.0, 1.0]],
        # touching, with the other vertices on one side
        [[0.0, 0.0], [0.5, 0.5], [0.0, 1.0]],
        [[0.5, 0.5], [1.0, 0.0], [1.0, 1.0]],
        [],
    ]
    normal = np.asarray(normal)
    n = np.array([len(poly) for poly in polys])
    pts = np.zeros((len(polys), n.max(), 2))
    d = np.zeros((len(polys), n.max()))
    for r, poly in enumerate(polys):
        poly = np.asarray(poly).reshape(-1, 2)
        pts[r, : len(poly)] = poly
        d[r, : len(poly)] = poly @ normal - offset
    out, k = supermesh._halfplane_step(pts, n, d)
    for r, poly in enumerate(polys):
        ref = oracles._clip_halfplane(np.asarray(poly).reshape(-1, 2), normal, offset)
        assert np.array_equal(out[r, : k[r]], ref.reshape(-1, 2)), r


# ---------------------------------------------------------- triangulation


def test_triangulate_triangle_identity():
    tris = triangulate_polygon(REF_TRI)
    assert tris.shape == (1, 3, 2)
    np.testing.assert_allclose(tris[0], REF_TRI)


def test_triangulate_square():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = triangulate_polygon(square)
    assert tris.shape == (2, 3, 2)
    areas = [shoelace(t) for t in tris]
    np.testing.assert_allclose(areas, [0.5, 0.5])


def test_triangulate_clipped_quadrilateral():
    poly = clip_simplex_to_box_cell(REF_TRI, (0.0, 0.0), (0.5, 1.0))
    tris = triangulate_polygon(poly)
    assert sum(shoelace(t) for t in tris) == pytest.approx(3.0 / 8.0, rel=1e-12)


def test_triangulate_degenerate_empty():
    assert len(triangulate_polygon(np.empty((0, 2)))) == 0
    assert len(triangulate_polygon(np.array([[0.0, 0.0], [1.0, 0.0]]))) == 0


# --------------------------------------------------------- validity checks


def _point_in_cell(mesh, cell, point, tol=1e-10):
    lam = barycentric(mesh.vertices[mesh.cells[cell]], point[None, :])
    return bool(np.all(lam >= -tol))


def check_supermesh(sm, meshes, haar):
    """The common-refinement conditions, checked directly from geometry.

    meshes maps the parent slot ('a' or 'b') to its simplicial mesh; every
    parent vertex must appear among the supermesh vertices, every supermesh
    cell must sit inside the single parent cell it records, and the cells
    grouped by parent index must tile each parent cell exactly.
    """
    sm_vertices = {
        tuple(np.round(v, 12)) for s in sm.simplices for v in s
    }
    for mesh in meshes.values():
        for v in mesh.vertices:
            assert tuple(np.round(v, 12)) in sm_vertices

    centroids = sm.simplices.mean(axis=1)
    parent_of = {"a": sm.parent_a, "b": sm.parent_b}
    for slot, mesh in meshes.items():
        parents = parent_of[slot]
        for e in range(len(sm)):
            containing = [
                c for c in range(mesh.n_cells) if _point_in_cell(mesh, c, centroids[e])
            ]
            assert containing == [parents[e]]
            # full containment, not just the centroid
            lam = barycentric(
                mesh.vertices[mesh.cells[parents[e]]], sm.simplices[e]
            )
            assert np.all(lam >= -1e-10)
        sums = np.bincount(parents, weights=sm.volumes, minlength=mesh.n_cells)
        np.testing.assert_allclose(sums, cell_volumes(mesh), rtol=1e-10)

    np.testing.assert_array_equal(
        haar_cell_index(haar, centroids), sm.parent_haar
    )
    haar_sums = np.bincount(sm.parent_haar, weights=sm.volumes, minlength=haar.n_cells)
    np.testing.assert_allclose(haar_sums, haar.cell_volume, rtol=1e-10)

    assert sm.volumes.sum() == pytest.approx(haar.box.volume, rel=1e-10)
    assert np.all(sm.volumes > 0)


# ------------------------------------------------------- two-way supermesh


def test_two_way_nested_1d():
    mesh = build_uniform_mesh(UNIT1, 1, 2)
    haar = HaarMesh(0, 1, UNIT1)
    sm = build_supermesh(mesh, haar)
    assert len(sm) == mesh.n_cells
    check_supermesh(sm, {"a": mesh}, haar)


def test_two_way_thirds_1d():
    mesh = interval_mesh([0.0, 1 / 3, 2 / 3, 1.0])
    haar = HaarMesh(0, 1, UNIT1)
    sm = build_supermesh(mesh, haar)
    assert len(sm) == 4
    breaks = sorted(np.round(sm.simplices[:, :, 0].ravel(), 12))
    np.testing.assert_allclose(
        np.unique(breaks), [0.0, 1 / 3, 0.5, 2 / 3, 1.0], atol=1e-12
    )
    check_supermesh(sm, {"a": mesh}, haar)


@pytest.mark.parametrize("n,level", [(2, 1), (3, 1), (4, 0)])
def test_two_way_2d(n, level):
    mesh = build_uniform_mesh(UNIT2, 2, n)
    haar = HaarMesh(level, 2, UNIT2)
    sm = build_supermesh(mesh, haar)
    check_supermesh(sm, {"a": mesh}, haar)


def test_two_way_box_mismatch():
    mesh = build_uniform_mesh(UNIT2, 2, 2)
    haar = HaarMesh(0, 2, Box((0.0, 0.0), (2.0, 2.0)))
    with pytest.raises(ValueError):
        build_supermesh(mesh, haar)


def test_two_way_sorted_by_parents():
    mesh = build_uniform_mesh(UNIT2, 2, 3)
    sm = build_supermesh(mesh, HaarMesh(1, 2, UNIT2))
    keys = list(zip(sm.parent_a, sm.parent_haar))
    assert keys == sorted(keys)


# ----------------------------------------------------- three-way supermesh


def test_three_way_identical_nested():
    fine = build_uniform_mesh(UNIT1, 1, 2)
    sm = build_three_way_supermesh(fine, fine, HaarMesh(0, 1, UNIT1))
    assert len(sm) == fine.n_cells
    check_supermesh(sm, {"a": fine, "b": fine}, HaarMesh(0, 1, UNIT1))


def test_three_way_1d_merged_breakpoints():
    fine = build_uniform_mesh(UNIT1, 1, 2)
    coarse = interval_mesh([0.0, 1 / 3, 2 / 3, 1.0])
    haar = HaarMesh(-1, 1, UNIT1)
    sm = build_three_way_supermesh(fine, coarse, haar)
    assert len(sm) == 4
    lows = np.sort(sm.simplices[:, :, 0].min(axis=1))
    np.testing.assert_allclose(lows, [0.0, 1 / 3, 0.5, 2 / 3], atol=1e-12)
    check_supermesh(sm, {"a": fine, "b": coarse}, haar)


def test_three_way_crossed_diagonals():
    fine = build_uniform_mesh(UNIT2, 2, 1, diagonal="right")
    coarse = build_uniform_mesh(UNIT2, 2, 1, diagonal="left")
    haar = HaarMesh(-1, 2, UNIT2)
    sm = build_three_way_supermesh(fine, coarse, haar)
    assert len(sm) == 4
    check_supermesh(sm, {"a": fine, "b": coarse}, haar)


def test_three_way_non_nested_pair():
    fine = build_uniform_mesh(UNIT2, 2, 4, diagonal="right")
    coarse = build_uniform_mesh(UNIT2, 2, 2, diagonal="left")
    haar = HaarMesh(1, 2, UNIT2)
    sm = build_three_way_supermesh(fine, coarse, haar)
    check_supermesh(sm, {"a": fine, "b": coarse}, haar)


def test_three_way_growth_bound():
    box = Box((-1.0, -1.0), (1.0, 1.0))
    for ell, lcal in [(2, 1), (3, 2)]:
        fine = build_uniform_mesh(box, 2, 2 ** (ell + 1), diagonal="right")
        coarse = build_uniform_mesh(box, 2, 2**ell, diagonal="left")
        haar = HaarMesh(lcal, 2, box)
        sm = build_three_way_supermesh(fine, coarse, haar)
        assert len(sm) <= 8 * (fine.n_cells + coarse.n_cells + haar.n_cells)


def test_three_way_box_mismatch():
    fine = build_uniform_mesh(UNIT2, 2, 2)
    coarse = build_uniform_mesh(Box((0.0, 0.0), (2.0, 2.0)), 2, 1)
    with pytest.raises(ValueError):
        build_three_way_supermesh(fine, coarse, HaarMesh(0, 2, UNIT2))


# ------------------------------------------------------------------- dumps


def test_csv_dump_round_trip(tmp_path):
    mesh = build_uniform_mesh(UNIT2, 2, 2)
    sm = build_supermesh(mesh, HaarMesh(1, 2, UNIT2))
    path = tmp_path / "sm.csv"
    write_supermesh_csv(sm, path)
    with open(path) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == len(sm)
    total = sum(float(r["volume"]) for r in rows)
    assert total == pytest.approx(1.0, rel=1e-12)
    assert all(r["parent_b"] == "-1" for r in rows)


@pytest.mark.parametrize("dim", [1, 2])
def test_csv_dump_text_per_cell(tmp_path, dim):
    """Each row holds the cell's fields as repr of Python ints and floats,
    unused coordinate slots as 0.0, in cell order."""
    box = UNIT1 if dim == 1 else UNIT2
    fine = build_uniform_mesh(box, dim, 4)
    coarse = build_uniform_mesh(box, dim, 3, diagonal="left")
    sm = build_three_way_supermesh(fine, coarse, HaarMesh(1, dim, box))
    path = tmp_path / "sm.csv"
    write_supermesh_csv(sm, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "parent_a,parent_b,parent_haar,volume,x0,y0,x1,y1,x2,y2"
    assert len(lines) == len(sm) + 1
    for i, line in enumerate(lines[1:]):
        coords = np.zeros((3, 2))
        coords[: dim + 1, :dim] = sm.simplices[i]
        fields = [int(sm.parent_a[i]), int(sm.parent_b[i]), int(sm.parent_haar[i])]
        fields += [repr(float(sm.volumes[i]))] + [repr(float(v)) for v in coords.ravel()]
        assert line == ",".join(map(str, fields))


# ------------------------------------------------------ loop oracle match


def assert_matches_oracle(sm, ref):
    """Same cells in the same order with the same parents; geometry to 1e-14."""
    assert (sm.dim, sm.n_parents, len(sm)) == (ref.dim, ref.n_parents, len(ref))
    np.testing.assert_array_equal(sm.parent_a, ref.parent_a)
    np.testing.assert_array_equal(sm.parent_b, ref.parent_b)
    np.testing.assert_array_equal(sm.parent_haar, ref.parent_haar)
    np.testing.assert_allclose(sm.simplices, ref.simplices, rtol=0, atol=1e-14)
    np.testing.assert_allclose(sm.volumes, ref.volumes, rtol=0, atol=1e-14)


def jittered_mesh(n, diagonal, scale, rng):
    """Uniform 2D mesh of [-1, 1]^2 whose interior vertices are moved by up
    to `scale` cell widths along each axis."""
    mesh = build_uniform_mesh(BIG2, 2, n, diagonal=diagonal)
    v = mesh.vertices.copy()
    inner = mesh.interior_vertices
    v[inner] += rng.uniform(-1.0, 1.0, (len(inner), 2)) * scale * (2.0 / n)
    out = SimplicialMesh(2, v, mesh.cells.copy(), mesh.boundary_vertices)
    # no cell flipped: the cells still tile the box
    assert cell_volumes(out).sum() == pytest.approx(BIG2.volume, rel=1e-12)
    return out


def random_interval_mesh(n_cells, rng):
    inner = np.sort(rng.uniform(-1.0, 1.0, n_cells - 1))
    return interval_mesh(np.concatenate([[-1.0], inner, [1.0]]))


@pytest.mark.parametrize("dim,levels", [(1, [1, 2, 3, 4, 5, 6]), (2, [1, 2, 3, 4, 5])])
def test_batched_matches_loop_on_default_hierarchy(dim, levels):
    hier = build_hierarchy(
        default_g_box(dim), default_d_box(dim), dim, levels, [3] * len(levels)
    )
    for pos, (_, d, haar) in enumerate(hier.levels):
        if pos == 0:
            sm, ref = build_supermesh(d, haar), oracles.build_supermesh(d, haar)
        else:
            dc = hier.levels[pos - 1][1]
            sm = build_three_way_supermesh(d, dc, haar)
            ref = oracles.build_three_way_supermesh(d, dc, haar)
        assert_matches_oracle(sm, ref)


# tiny jitters put fine vertices within the merge tolerance of coarse edges
# and Haar lines (near-degenerate cuts); large ones give general triangles
# scale 0 keeps the uniform meshes: shared axis-aligned lines with crossing
# diagonals, so many cells and Haar cells touch along an edge or at a point
@pytest.mark.parametrize("scale", [0.0, 1e-14, 1e-12, 1e-10, 0.05, 0.2])
def test_batched_matches_loop_on_jittered_2d(scale):
    rng = np.random.default_rng(20240611)
    fine = jittered_mesh(8, "right", scale, rng)
    coarse = jittered_mesh(4, "left", scale, rng)
    for level in range(-1, 4):
        haar = HaarMesh(level, 2, BIG2)
        assert_matches_oracle(
            build_three_way_supermesh(fine, coarse, haar),
            oracles.build_three_way_supermesh(fine, coarse, haar),
        )
        assert_matches_oracle(
            build_supermesh(fine, haar), oracles.build_supermesh(fine, haar)
        )


def test_batched_matches_loop_on_nonuniform_1d():
    rng = np.random.default_rng(7)
    for _ in range(4):
        fine, coarse = random_interval_mesh(17, rng), random_interval_mesh(6, rng)
        for level in range(-1, 4):
            haar = HaarMesh(level, 1, BIG1)
            assert_matches_oracle(
                build_three_way_supermesh(fine, coarse, haar),
                oracles.build_three_way_supermesh(fine, coarse, haar),
            )
            assert_matches_oracle(
                build_supermesh(fine, haar), oracles.build_supermesh(fine, haar)
            )


def test_three_way_clips_few_pairs_per_cell(monkeypatch):
    """Only (fine, coarse) pairs whose bounding boxes overlap reach the clip,
    so the clipping work is linear in the output: on the default 2D
    hierarchy at most 1.5 pairs per supermesh cell at every position."""
    hier = build_hierarchy(default_g_box(2), default_d_box(2), 2, [1, 2, 3, 4, 5], [3] * 5)
    clipped = []
    intersect = supermesh._intersect

    def counting(pts, simplices):
        clipped.append(len(pts))
        return intersect(pts, simplices)

    monkeypatch.setattr(supermesh, "_intersect", counting)
    for pos in range(1, 5):
        (_, fine, haar), coarse = hier.levels[pos], hier.levels[pos - 1][1]
        clipped.clear()
        sm = build_three_way_supermesh(fine, coarse, haar)
        assert sum(clipped) <= 1.5 * len(sm), pos


@pytest.mark.parametrize("pos,n_cells", [(3, 3072), (4, 12288)])
def test_three_way_build_memory_is_bounded(pos, n_cells):
    """Blocked candidates keep the build's scratch memory, beyond the arrays
    it returns, under 4 MB whatever the mesh size."""
    hier = build_hierarchy(default_g_box(2), default_d_box(2), 2, [1, 2, 3, 4, 5], [3] * 5)
    fine, haar = hier.levels[pos][1:]
    coarse = hier.levels[pos - 1][1]
    tracemalloc.start()
    try:
        sm = build_three_way_supermesh(fine, coarse, haar)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sm) == n_cells
    returned = sum(
        a.nbytes
        for a in (sm.simplices, sm.parent_a, sm.parent_b, sm.parent_haar, sm.volumes)
    )
    assert peak - returned < 4e6
