import hashlib
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from rieszvox import (
    AffineMapTriple,
    Ellipsoid,
    SetTriple,
    VoxelSet,
    boolean,
    from_cells,
    generate,
    load,
    permute_axes,
    rasterize_affine_image,
    rasterize_ellipsoid,
    reflect,
    save,
    symmetric_difference_measure,
    translate_cells,
    upscale_integer,
)

from conftest import random_voxel_set, set_digest

BALL_MEASURE_RTOL = 0.01
H = 1.0 / 32


def _cells_set(e):
    return set(map(tuple, e.global_indices()))


class TestVoxelSet:
    def test_origin_snaps_to_lattice(self):
        occ = np.ones((4,), dtype=bool)
        e = VoxelSet(occ, origin=np.array([3 * H]), spacing=H)
        assert e.origin_index[0] == 3
        assert e.origin[0] == 3 * H

    def test_misaligned_origin_rejected(self):
        occ = np.ones((4,), dtype=bool)
        with pytest.raises(ValueError):
            VoxelSet(occ, origin=np.array([0.4 * H]), spacing=H)

    def test_from_index_roundtrip(self):
        occ = np.zeros((3, 5), dtype=bool)
        occ[1, 2] = True
        e = VoxelSet.from_index(occ, [-1, 7], H)
        assert _cells_set(e) == {(0, 9)}
        assert e.measure == H**2

    def test_occupancy_immutable(self):
        e = random_voxel_set(2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            e.occupancy[0, 0] = True

    def test_tighten_preserves_cells(self):
        occ = np.zeros((6, 6), dtype=bool)
        occ[2:4, 3] = True
        e = VoxelSet.from_index(occ, [0, 0], H)
        t = e.tighten()
        assert t.shape == (2, 1)
        assert _cells_set(t) == _cells_set(e)
        assert t == e

    def test_eq_is_voxelwise(self):
        a = VoxelSet.from_index(np.ones((2, 2), bool), [0, 0], H)
        pad = np.zeros((4, 4), bool)
        pad[1:3, 1:3] = True
        b = VoxelSet.from_index(pad, [-1, -1], H)
        assert a == b
        assert len({a, b}) == 1  # equal sets hash alike

    def test_cell_centers(self):
        e = VoxelSet.from_index(np.ones((1,), bool), [2], H)
        assert np.allclose(e.cell_centers(), [(2 + 0.5) * H])

    def test_empty(self):
        e = VoxelSet.empty(2, H)
        assert e.is_empty and e.count == 0 and e.measure == 0.0

    @pytest.mark.parametrize(
        "build",
        [
            lambda occ: VoxelSet(occ, [0.0, 0.0], float("nan")),
            lambda occ: VoxelSet(occ, [0.0, 0.0], float("inf")),
            lambda occ: VoxelSet(occ, [0.0, 0.0], 0.0),
            lambda occ: VoxelSet(occ, [0.0, 0.0], -H),
            lambda occ: VoxelSet(occ, [float("nan"), 0.0], H),
            lambda occ: VoxelSet(occ, [0.0, float("inf")], H),
            lambda occ: VoxelSet(occ, [0.0], H),
            lambda occ: VoxelSet.from_index(occ, [0, 0], float("nan")),
            lambda occ: VoxelSet.from_index(occ, [0, 0], float("inf")),
            lambda occ: VoxelSet.from_index(occ, [0, 0], 0.0),
            lambda occ: VoxelSet.from_index(occ, [float("nan"), 0.0], H),
            lambda occ: VoxelSet.from_index(occ, [0, 0, 0], H),
            lambda occ: VoxelSet.from_index(occ[None, None, None], [0] * 5, H),
            lambda occ: VoxelSet.from_index(occ[:0], [0, 0], H),
        ],
        ids=[
            "nan-spacing", "inf-spacing", "zero-spacing", "negative-spacing",
            "nan-origin", "inf-origin", "short-origin",
            "from-index-nan-spacing", "from-index-inf-spacing",
            "from-index-zero-spacing", "from-index-nan-origin",
            "from-index-long-origin", "dim-5", "empty-shape",
        ],
    )
    def test_invalid_construction_rejected(self, build):
        with pytest.raises(ValueError):
            build(np.ones((2, 2), dtype=bool))


class TestBoolean:
    @seed(7)
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 3))
    def test_inclusion_exclusion_exact(self, s, dim):
        rng = np.random.default_rng(s)
        a = random_voxel_set(dim, rng, cells=8)
        b = random_voxel_set(dim, rng, cells=8)
        u = boolean(a, b, "union")
        i = boolean(a, b, "intersection")
        d = boolean(a, b, "difference")
        assert u.count + i.count == a.count + b.count
        assert d.count == a.count - i.count
        assert _cells_set(u) == _cells_set(a) | _cells_set(b)
        assert _cells_set(i) == _cells_set(a) & _cells_set(b)
        assert _cells_set(d) == _cells_set(a) - _cells_set(b)

    def test_mixed_spacing_rejected(self):
        a = VoxelSet.from_index(np.ones((2,), bool), [0], 1.0 / 32)
        b = VoxelSet.from_index(np.ones((2,), bool), [0], 1.0 / 64)
        with pytest.raises(ValueError):
            boolean(a, b, "union")

    def test_symmetric_difference_measure(self):
        a = VoxelSet.from_index(np.ones((4,), bool), [0], H)
        b = VoxelSet.from_index(np.ones((4,), bool), [2], H)
        assert symmetric_difference_measure(a, b) == pytest.approx(4 * H)


class TestTransforms:
    @seed(11)
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 3))
    def test_reflection_involution(self, s, dim):
        e = random_voxel_set(dim, np.random.default_rng(s))
        r = reflect(e)
        assert r.count == e.count
        assert reflect(r) == e
        # cell g maps to -g-1
        assert _cells_set(r) == {tuple(-np.asarray(c) - 1) for c in _cells_set(e)}

    def test_translate_cells(self):
        e = VoxelSet.from_index(np.ones((2, 2), bool), [0, 0], H)
        t = translate_cells(e, [3, -1])
        assert _cells_set(t) == {(3, -1), (3, 0), (4, -1), (4, 0)}

    def test_translate_cells_rejects_fractions(self):
        # (1.5, 0) used to shift by one cell
        e = VoxelSet.from_index(np.ones((2, 2), bool), [0, 0], H)
        with pytest.raises(ValueError, match="offset must be an integer, got 1.5"):
            translate_cells(e, (1.5, 0))
        assert translate_cells(e, (3.0, -1.0)) == translate_cells(e, [3, -1])
        assert translate_cells(e, np.array([3, -1])) == translate_cells(e, [3, -1])

    def test_permute_axes_rejects_fractions(self):
        # (0.5, 1) used to act as (0, 1)
        e = VoxelSet.from_index(np.ones((2, 3), bool), [0, 0], H)
        with pytest.raises(ValueError, match="perm must be an integer, got 0.5"):
            permute_axes(e, (0.5, 1))
        assert permute_axes(e, (1.0, 0.0)) == permute_axes(e, (1, 0))

    def test_upscale_integer_rejects_fractions(self):
        # a factor of 1.5 used to return the set unchanged
        e = VoxelSet.from_index(np.ones((2, 2), bool), [0, 0], H)
        with pytest.raises(ValueError, match="upscale factor must be an integer, got 1.5"):
            upscale_integer(e, 1.5)
        assert upscale_integer(e, 2.0) == upscale_integer(e, 2)

    def test_permute_axes(self):
        occ = np.zeros((2, 3), bool)
        occ[0, 2] = True
        e = VoxelSet.from_index(occ, [1, -2], H)
        p = permute_axes(e, (1, 0))
        assert _cells_set(p) == {(0, 1)}

    @seed(13)
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 2), st.integers(2, 3))
    def test_upscale_integer(self, s, dim, m):
        e = random_voxel_set(dim, np.random.default_rng(s), cells=6)
        u = upscale_integer(e, m)
        assert u.count == e.count * m**dim
        assert u.measure == pytest.approx(e.measure, rel=1e-12)
        assert u.spacing == pytest.approx(e.spacing / m)


class TestRasterize:
    def test_ball_measure(self):
        e = generate("ball", {"dim": 2, "spacing": 1.0 / 64, "radius": 1.0})
        assert e.measure == pytest.approx(np.pi, rel=BALL_MEASURE_RTOL)

    def test_ball_symmetry(self):
        e = generate("ball", {"dim": 2, "spacing": 1.0 / 32, "radius": 0.7})
        assert reflect(e) == e

    def test_ellipsoid_measure(self):
        e = generate(
            "ellipsoid", {"dim": 2, "spacing": 1.0 / 64, "axes": [1.2, 0.5]}
        )
        assert e.measure == pytest.approx(np.pi * 1.2 * 0.5, rel=BALL_MEASURE_RTOL)

    def test_rasterize_ellipsoid_duck_type(self):
        class Shape:
            center = np.zeros(2)
            shape = np.eye(2) / 0.5**2

        e = rasterize_ellipsoid(Shape(), 1.0 / 64, 3)
        assert e.measure == pytest.approx(np.pi * 0.25, rel=BALL_MEASURE_RTOL)

    def test_supersample_must_be_an_integer(self):
        ball = Ellipsoid(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match="supersample must be an integer, got 2.5"):
            rasterize_ellipsoid(ball, H, 2.5)
        e = rasterize_ellipsoid(ball, H, 2)
        with pytest.raises(ValueError, match="supersample must be an integer, got 2.5"):
            rasterize_affine_image(e, np.eye(2), np.zeros(2), H, 2.5)
        assert rasterize_ellipsoid(ball, H, 2.0) == e
        assert rasterize_affine_image(e, np.eye(2), np.zeros(2), H, 3.0) == (
            rasterize_affine_image(e, np.eye(2), np.zeros(2), H, 3)
        )

    def test_affine_integer_diagonal_exact(self):
        e = random_voxel_set(2, np.random.default_rng(5), cells=6, spacing=H)
        img = rasterize_affine_image(e, np.diag([2.0, 2.0]), np.zeros(2), H / 1)
        assert img.measure == pytest.approx(4 * e.measure, rel=1e-12)

    def test_affine_shear_preserves_measure(self):
        e = generate("ball", {"dim": 2, "spacing": 1.0 / 64, "radius": 0.8})
        a = np.array([[1.0, 0.4], [0.0, 1.0]])
        img = rasterize_affine_image(e, a, np.zeros(2), 1.0 / 64, supersample=3)
        assert img.measure == pytest.approx(e.measure, rel=0.01)


class TestGenerate:
    def test_deterministic(self):
        p = {"dim": 2, "spacing": H, "radius": 0.4, "steps": 4}
        assert generate("blob", p, seed=3) == generate("blob", p, seed=3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate("torus", {})

    def test_unknown_param(self):
        with pytest.raises(ValueError):
            generate("ball", {"radius": 1.0, "wobble": 2})

    def test_empty_result_rejected(self):
        with pytest.raises(ValueError):
            generate("ball", {"dim": 2, "spacing": 1.0 / 8, "radius": 1e-6})

    def test_union_of_balls(self):
        e = generate("union_of_balls", {"dim": 2, "spacing": H, "n": 4}, seed=1)
        assert e.count > 0

    @pytest.mark.parametrize(
        "kind,name,value",
        [
            # radius=-1 used to give the radius-1 ball, since Q = I / r^2
            ("ball", "radius", -1.0),
            ("ball", "radius", 0.0),
            ("ellipsoid", "axes", [0.5, -0.5]),
            ("ellipsoid", "axes", [np.nan, 0.5]),
            ("blob", "radius", -0.35),
            ("union_of_balls", "rmin", 0.0),
            ("union_of_balls", "rmax", np.inf),
        ],
    )
    def test_sizes_must_be_finite_and_positive(self, kind, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            generate(kind, {"dim": 2, "spacing": H, name: value})

    @pytest.mark.parametrize("jitter", [1.5, -0.1, np.nan])
    def test_blob_jitter_must_lie_in_unit_interval(self, jitter):
        # jitter 1.5 used to draw a negative radius and rasterize |radius|
        with pytest.raises(ValueError, match="jitter must lie in"):
            generate("blob", {"dim": 2, "spacing": H, "jitter": jitter})

    def test_default_blob_unchanged(self):
        e = generate("blob", {"dim": 2}, seed=0)
        assert (e.count, e.shape, tuple(e.origin_index)) == (3274, (59, 72), (-27, -26))
        digest = hashlib.sha256(np.packbits(e.occupancy).tobytes()).hexdigest()
        assert digest.startswith("f3a5d5e6e3ed2b75")

    @pytest.mark.parametrize(
        "kind,name,value",
        [
            ("blob", "steps", 5.5),  # used to write the steps=5 blob
            ("blob", "supersample", 2.5),  # used to sample with s=2
            ("ball", "dim", 2.5),  # used to give d=2
            ("union_of_balls", "n", 2.5),
            ("ball", "supersample", np.nan),
        ],
    )
    def test_integer_params_reject_fractions(self, kind, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value}"):
            generate(kind, {"dim": 2, "spacing": H, name: value})

    def test_integral_floats_are_integers(self):
        p = {"dim": 2, "spacing": H, "steps": 3, "supersample": 3}
        want = generate("blob", p, seed=2)
        assert generate("blob", {**p, "dim": 2.0, "steps": 3.0, "supersample": 3.0}, seed=2) == want
        assert generate("blob", {**p, "steps": np.int64(3)}, seed=2) == want

    # sha256 of origin, shape and packed occupancy, recorded before every
    # kind went through one rasterize-and-union loop
    @pytest.mark.parametrize(
        "kind,params,seed,want",
        [
            ("ball", {"dim": 3, "spacing": 1 / 16, "radius": 0.6, "center": [0.1, -0.2, 0.05]},
             0, "eb69dd61c045fbc5"),
            ("ellipsoid", {"dim": 2, "spacing": 1 / 32, "axes": [0.8, 0.3], "center": [0.1, 0.0]},
             0, "8b0c6778493a0e76"),
            ("ellipsoid", {"dim": 3, "spacing": 1 / 16, "shape": [[4, 1, 0], [1, 9, 0], [0, 0, 2]]},
             0, "239c6c56be0f42ee"),
            ("blob", {"dim": 1, "spacing": 1 / 32}, 1, "ed2ff9bc11c2e12a"),
            ("blob", {"dim": 2, "spacing": 1 / 32}, 0, "f03106fada91c115"),
            ("blob", {"dim": 2, "spacing": 1 / 32}, 7, "1ea486270b11987c"),
            ("blob", {"dim": 3, "spacing": 1 / 16, "steps": 4}, 2, "04727c8c4a5b840c"),
            ("union_of_balls", {"dim": 1, "spacing": 1 / 32}, 3, "88401e023a30ff41"),
            ("union_of_balls", {"dim": 2, "spacing": 1 / 32, "n": 5}, 0, "553308a6c7e68d72"),
            ("union_of_balls", {"dim": 2, "spacing": 1 / 32, "n": 5}, 4, "7d4fea48ffbbff36"),
            ("union_of_balls", {"dim": 3, "spacing": 1 / 16}, 1, "1be310c152c57da3"),
        ],
    )
    def test_output_pinned(self, kind, params, seed, want):
        assert set_digest(generate(kind, params, seed=seed)) == want

    def test_caller_center_stays_writable(self):
        c = np.zeros(2)
        generate("ball", {"spacing": H, "center": c})
        generate("blob", {"spacing": H, "center": c, "steps": 2})
        assert c.flags.writeable

    def test_ellipsoid_shape_as_entries_row_by_row(self):
        p = {"dim": 2, "spacing": H, "center": [0.1, 0.0]}
        q = [[4.0, 1.0], [1.0, 9.0]]
        assert generate("ellipsoid", {**p, "shape": q}) == generate(
            "ellipsoid", {**p, "shape": [4.0, 1.0, 1.0, 9.0]}
        )
        with pytest.raises(ValueError, match="shape needs 4 numbers"):
            generate("ellipsoid", {**p, "shape": [4.0, 0.0, 4.0]})


class TestTripleClasses:
    def test_set_triple_needs_three(self):
        e = generate("ball", {"dim": 2, "spacing": H, "radius": 0.5})
        with pytest.raises(ValueError):
            SetTriple([e, e])

    def test_set_triple_rejects_mixed_spacing(self):
        a = generate("ball", {"dim": 2, "spacing": H, "radius": 0.5})
        b = generate("ball", {"dim": 2, "spacing": H / 2, "radius": 0.5})
        with pytest.raises(ValueError):
            SetTriple([a, a, b])

    def test_affine_triple_translation_sum(self):
        with pytest.raises(ValueError):
            AffineMapTriple(np.eye(2), [np.ones(2), np.ones(2), np.ones(2)])
        AffineMapTriple(np.eye(2), [np.ones(2), -np.ones(2), np.zeros(2)])

    def test_affine_triple_rejects_singular(self):
        with pytest.raises(ValueError):
            AffineMapTriple(np.zeros((2, 2)), [np.zeros(2)] * 3)


class TestFromCells:
    def test_builds_and_dedupes(self):
        e = from_cells([[0, 0], [1, 2], [0, 0]], 2, H)
        assert e.count == 2
        assert _cells_set(e) == {(0, 0), (1, 2)}


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        e = random_voxel_set(3, np.random.default_rng(2), cells=5)
        p = tmp_path / "e.vxg"
        save(e, str(p))
        back = load(str(p))
        assert back == e
        assert back.spacing == e.spacing
        assert np.array_equal(back.origin_index, e.origin_index)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.vxg"
        p.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(ValueError):
            load(str(p))

    def test_truncated(self, tmp_path):
        e = random_voxel_set(2, np.random.default_rng(3))
        p = tmp_path / "e.vxg"
        save(e, str(p))
        data = p.read_bytes()
        p.write_bytes(data[: len(data) - 3])
        with pytest.raises(ValueError):
            load(str(p))

    def test_trailing_bytes_rejected(self, tmp_path):
        e = random_voxel_set(2, np.random.default_rng(3))
        p = tmp_path / "e.vxg"
        save(e, str(p))
        p.write_bytes(p.read_bytes() + b"junk")
        with pytest.raises(ValueError, match="trailing"):
            load(str(p))

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_shape_not_matching_payload_rejected(self, tmp_path, delta):
        # a 16x16 set has a 32-byte payload; an 8-cell change of the first
        # axis makes the shape need 16 bytes more or fewer
        e = VoxelSet.from_index(np.ones((16, 16), dtype=bool), [0, 0], H)
        p = tmp_path / "e.vxg"
        save(e, str(p))
        data = bytearray(p.read_bytes())
        struct.pack_into("<I", data, 6, 16 + 8 * delta)
        p.write_bytes(bytes(data))
        with pytest.raises(ValueError):
            load(str(p))

    def test_nan_spacing_file_rejected(self, tmp_path):
        e = random_voxel_set(1, np.random.default_rng(4))
        p = tmp_path / "e.vxg"
        save(e, str(p))
        data = bytearray(p.read_bytes())
        struct.pack_into("<d", data, 6 + 4, float("nan"))
        p.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="spacing"):
            load(str(p))

    def test_bad_version(self, tmp_path):
        e = random_voxel_set(1, np.random.default_rng(4))
        p = tmp_path / "e.vxg"
        save(e, str(p))
        data = bytearray(p.read_bytes())
        data[4] = 99
        p.write_bytes(bytes(data))
        with pytest.raises(ValueError):
            load(str(p))


class TestPersistenceFuzz:
    """Every corrupt VXG1 file raises ValueError, and none allocates the
    occupancy its header claims before the payload size is checked."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return str(tmp_path_factory.mktemp("fuzz") / "e.vxg")

    @staticmethod
    def _saved(path, seed, dim):
        save(random_voxel_set(dim, np.random.default_rng(seed), cells=4), path)
        with open(path, "rb") as fh:
            return bytearray(fh.read())

    @staticmethod
    def _rejected(path, data, match=None):
        with open(path, "wb") as fh:
            fh.write(bytes(data))
        with pytest.raises(ValueError, match=match):
            load(path)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 3))
    def test_truncation_at_every_offset(self, path, seed, dim):
        data = self._saved(path, seed, dim)
        for cut in range(len(data)):
            self._rejected(path, data[:cut])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 3), st.binary(min_size=1, max_size=40))
    def test_trailing_bytes(self, path, seed, dim, extra):
        self._rejected(path, self._saved(path, seed, dim) + extra)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 3),
        st.sampled_from([0.0, -0.0, -0.25, float("nan"), float("inf"), float("-inf")]),
    )
    def test_bad_spacing(self, path, seed, dim, spacing):
        data = self._saved(path, seed, dim)
        struct.pack_into("<d", data, 6 + 4 * dim, spacing)
        self._rejected(path, data, match="spacing")

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 3).flatmap(lambda d: st.tuples(st.just(d), st.integers(0, d - 1))),
        st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    )
    def test_bad_origin(self, path, seed, dim_axis, value):
        dim, axis = dim_axis
        data = self._saved(path, seed, dim)
        struct.pack_into("<d", data, 6 + 4 * dim + 8 + 8 * axis, value)
        self._rejected(path, data, match="origin")

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 3), st.integers(0, 64))
    def test_huge_shape_short_payload(self, path, seed, dim, payload):
        data = self._saved(path, seed, dim)
        header = 6 + 4 * dim + 8 + 8 * dim
        for axis in range(dim):
            struct.pack_into("<I", data, 6 + 4 * axis, 2**32 - 1)
        data = data[:header] + bytes(payload)
        tracemalloc.start()
        try:
            self._rejected(path, data, match="truncated")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
