import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipticlab import fields, moduli
from ellipticlab.errors import ConfigError, DegenerateModulusError, DomainError
from ellipticlab.operators import SymMatrix


def grid(N=65, L=1.0, f=None, components=1):
    f = f or (lambda pts: np.zeros(np.asarray(pts).shape[:-1]))
    return fields.sample_function(f, n=2, N=N, L=L, components=components)


# block sizes for the passes that run in blocks of fields._CHUNK_VALUES:
# small ones, so that every grid here crosses many blocks
CHUNK_SIZES = (8, 24, fields._CHUNK_VALUES)


class TestGridField:
    def test_origin_is_a_node(self):
        u = grid(N=65)
        np.testing.assert_array_equal(u.node_coords(u.origin_index()), [0.0, 0.0])

    def test_even_N_rejected(self):
        with pytest.raises(ConfigError):
            fields.GridField(2, 64, 1.0, np.zeros((64, 64)))

    def test_small_L_rejected(self):
        with pytest.raises(ConfigError):
            fields.GridField(2, 5, 0.5, np.zeros((5, 5)))

    @pytest.mark.parametrize("N", [-1, 0, 1])
    def test_bad_node_count_rejected_before_sampling(self, N):
        with pytest.raises(ConfigError):
            fields.sample_function(lambda pts: pts[..., 0], N=N)

    def test_sample_corner_value(self):
        u = grid(N=5, f=fields.profile("half_norm_sq"))
        assert u.values[0, 0] == pytest.approx(1.0)
        assert u.values[u.origin_index()] == 0.0

    def test_nonfinite_rejected(self):
        bad = lambda pts: np.where(np.asarray(pts)[..., 0] > 0.5, np.inf, 0.0)
        with pytest.raises(DomainError):
            grid(N=9, f=bad)

    @pytest.mark.parametrize("n, N, components, idx", [
        (2, 9, 1, (6, 3)),
        (3, 5, 2, (3, 0, 4, 1)),   # the second component of node (3, 0, 4)
    ])
    def test_nonfinite_message_names_the_global_node_index(self, monkeypatch, n, N,
                                                           components, idx):
        h = 2.0 / (N - 1)
        at = -1.0 + h * np.asarray(idx[:n], dtype=float)

        def bad(pts):
            v = np.where(np.all(pts == at, axis=-1), np.nan, 1.0)
            return v if components == 1 else np.stack([np.ones_like(v), v], axis=-1)

        for chunk in CHUNK_SIZES:
            monkeypatch.setattr(fields, "_CHUNK_VALUES", chunk)
            with pytest.raises(DomainError, match=rf"node index \({', '.join(map(str, idx))}\)$"):
                fields.sample_function(bad, n=n, N=N, components=components)

    @pytest.mark.parametrize("f, components, shape", [
        (lambda pts: pts, 3, r"\(5, 5, 3\)"),        # (..., 2) for 3 components
        (lambda pts: np.ones(7), 1, r"\(5, 5\)"),
        (lambda pts: np.ones(pts.shape[:-1] + (2,)), 1, r"\(5, 5\)"),
    ], ids=["points_for_3_components", "seven_values", "two_values_a_node"])
    def test_output_that_does_not_broadcast_rejected(self, f, components, shape):
        with pytest.raises(DomainError, match=rf"do not broadcast to {shape}"):
            fields.sample_function(f, n=2, N=5, components=components)

    def test_complex_output_rejected(self):
        with pytest.raises(DomainError, match=r"must be real, of shape \(5, 5\)"):
            fields.sample_function(lambda pts: pts[..., 0] + 1j * pts[..., 1], n=2, N=5)

    def test_callback_errors(self):
        """A callback's package error keeps its class (``mms_generate``'s
        ConfigError for a u* of another dimension is exit 2); any other
        exception becomes DomainError."""
        def refuse(pts):
            raise ConfigError("u_star's Hessians must be 2 x 2")

        with pytest.raises(ConfigError, match="u_star"):
            fields.sample_function(refuse, n=2, N=5)
        with pytest.raises(DomainError, match="evaluation failed"):
            fields.sample_function(lambda pts: 1 / 0, n=2, N=5)

    @pytest.mark.parametrize("n, N, components", [(2, 9, 1), (2, 33, 2), (3, 5, 1), (3, 9, 2)])
    def test_blocks_match_full_meshgrid(self, monkeypatch, n, N, components):
        """Each block's evaluation is the full-grid evaluation's, bit for bit."""
        rng = np.random.default_rng(N * n + components)
        g = rng.standard_normal((n, n))
        quad = fields.Polynomial2D(0.3, rng.standard_normal(n), SymMatrix.from_matrix(g + g.T))
        pts = np.stack(np.meshgrid(*[-1.5 + 3.0 / (N - 1) * np.arange(N)] * n,
                                   indexing="ij"), axis=-1)

        def with_quad(profile):
            return lambda p: np.stack([profile(p), quad(p)], axis=-1)

        for f in [quad] + list(fields.PROFILES.values()):
            if components == 2:
                f = with_quad(f)
            want = f(pts)
            for chunk in CHUNK_SIZES:
                monkeypatch.setattr(fields, "_CHUNK_VALUES", chunk)
                got = fields.sample_function(f, n=n, N=N, L=1.5, components=components)
                assert got.values.tobytes() == want.tobytes(), f"{chunk} nodes a block"


def full_grid_ball(u, x0_idx, r):
    """Reference ball extraction over the whole grid, row-major."""
    d = np.stack(u.meshgrid(), axis=-1) - u.node_coords(x0_idx)
    mask = np.linalg.norm(d, axis=-1) <= r + 1e-12
    return d[mask], u.values[mask]


class TestBallNodes:
    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_window_matches_full_grid(self, data):
        n = data.draw(st.sampled_from([2, 3]))
        N = data.draw(st.sampled_from([3, 5, 9, 17, 33] if n == 2 else [3, 5, 9, 17]))
        L = data.draw(st.sampled_from([1.0, 1.5]))
        components = data.draw(st.sampled_from([1, 2]))
        x0 = tuple(data.draw(st.integers(0, N - 1)) for _ in range(n))
        # negative radii give empty balls; 2.5 L sqrt(n) reaches past every
        # corner, and a ball that leaves the square is refused
        r = data.draw(st.one_of(
            st.floats(-0.2, 2.5 * L * n**0.5),
            st.integers(0, N).map(lambda k: k * 2.0 * L / (N - 1))))
        shape = (N,) * n + (() if components == 1 else (components,))
        vals = np.random.default_rng(N + n).standard_normal(shape)
        u = fields.GridField(n, N, L, vals, components)
        if not np.all(np.abs(u.node_coords(x0)) + r <= L + 1e-12):
            with pytest.raises(DomainError, match="outside the grid square"):
                fields.ball_window(u, x0, r)
            return
        d_ref, v_ref = full_grid_ball(u, x0, r)
        for chunk in CHUNK_SIZES:   # the mask is filled in blocks of this many nodes
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(fields, "_CHUNK_VALUES", chunk)
                box, axes, mask = fields.ball_window(u, x0, r)
            assert mask.shape == u.values[box].shape[:n] == tuple(len(t) for t in axes)
            assert mask.dtype == bool and mask.flags.c_contiguous
            d = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)[mask]
            assert np.array_equal(d, d_ref) and np.array_equal(u.values[box][mask], v_ref)

    @pytest.mark.parametrize("x0, r", [
        ((16, 16), 1.0 + 1e-9),   # the origin's ball just past the edge
        ((24, 16), 0.5 + 1e-9),   # an off-centre ball just past its edge
        ((16, 16), 3.0),          # a ball around the whole square
        ((16, 16), float("nan")),
    ])
    def test_ball_leaving_square_refused(self, x0, r):
        u = grid(N=33)
        with pytest.raises(DomainError, match="outside the grid square"):
            fields.ball_window(u, x0, r)


class TestBallAverage:
    def test_constant_field_zero(self):
        u = grid(N=33, f=lambda pts: np.full(np.asarray(pts).shape[:-1], 3.7))
        for r in (0.2, 0.5, 0.9):
            assert fields.ball_average_lp(u, u.origin_index(), r) == 0.0

    def test_linear_field_bounded_by_radius(self):
        u = grid(N=129, f=lambda pts: np.asarray(pts)[..., 0])
        x0 = u.origin_index()
        v5 = fields.ball_average_lp(u, x0, 0.5, p0=5)
        v50 = fields.ball_average_lp(u, x0, 0.5, p0=50)
        assert v5 <= 0.5 + 1e-12
        assert v5 < v50 <= 0.5 + 1e-12  # increases toward the sup r

    def test_radial_sqrt_polar_oracle(self):
        # independent oracle: mean over B_r of |x|^{p/2} = r^{p/2} * 2/(2+p/2)
        p0 = 3.0
        r = 0.5
        u = grid(N=257, f=fields.profile("radial_1_2"))
        got = fields.ball_average_lp(u, u.origin_index(), r, p0=p0)
        want = (2.0 / (2.0 + p0 / 2.0)) ** (1.0 / p0) * math.sqrt(r)
        assert got == pytest.approx(want, rel=2e-2)

    def test_p_must_exceed_dimension(self):
        u = grid(N=33)
        with pytest.raises(ConfigError):
            fields.ball_average_lp(u, u.origin_index(), 0.5, p0=2.0)

    def test_ball_outside_square(self):
        u = grid(N=33)
        with pytest.raises(DomainError):
            fields.ball_average_lp(u, (1, 1), 0.5)

    def test_monotone_under_domination(self):
        rng = np.random.default_rng(5)
        base = rng.standard_normal((33, 33))
        base[16, 16] = 0.0
        small = fields.GridField(2, 33, 1.0, base)
        big = fields.GridField(2, 33, 1.0, 2.0 * base)
        x0 = (16, 16)
        assert fields.ball_average_lp(small, x0, 0.5) <= \
            fields.ball_average_lp(big, x0, 0.5)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_power_mean_monotone_in_p(self, seed):
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal((17, 17))
        u = fields.GridField(2, 17, 1.0, vals)
        x0 = (8, 8)
        ps = [3.0, 5.0, 9.0]
        avgs = [fields.ball_average_lp(u, x0, 0.6, p0=p) for p in ps]
        assert avgs[0] <= avgs[1] + 1e-12 <= avgs[2] + 2e-12


class TestDiniConstant:
    def test_constant_field(self):
        u = grid(N=33, f=lambda pts: np.full(np.asarray(pts).shape[:-1], 1.0))
        rep = fields.dini_lp_constant(u, moduli.power(0.5), [u.origin_index()],
                                      [0.25, 0.5])
        assert rep.C_fit == 0.0

    def test_linear_field_ratio_algebra(self):
        # avg ~ c*r against tau = r^{1/2}: ratio ~ c*r^{1/2}, max at largest r
        u = grid(N=129, f=lambda pts: np.asarray(pts)[..., 0])
        rep = fields.dini_lp_constant(u, moduli.power(0.5), [u.origin_index()],
                                      [0.125, 0.25, 0.5])
        ratios = [row[4] for row in rep.table]
        assert ratios == sorted(ratios)
        assert rep.C_fit == ratios[-1]

    def test_scale_covariance_exact(self):
        u = grid(N=65, f=fields.profile("radial_1_2"))
        mod = moduli.power(0.5)
        args = ([u.origin_index()], [0.25, 0.5])
        c1 = fields.dini_lp_constant(u, mod, *args).C_fit
        c2 = fields.dini_lp_constant(u.scale(2.0), mod, *args).C_fit
        assert c2 == pytest.approx(2.0 * c1, rel=1e-13)

    def test_matched_modulus_stable_under_refinement(self):
        mod = moduli.power(0.5)
        cs = []
        for N in (65, 129, 257):
            u = grid(N=N, f=fields.profile("radial_1_2"))
            cs.append(fields.dini_lp_constant(u, mod, [u.origin_index()],
                                              [0.125, 0.25, 0.5]).C_fit)
        assert max(cs) / min(cs) < 1.1

    def test_degenerate_modulus(self):
        u = grid(N=33, f=lambda pts: np.asarray(pts)[..., 0])
        flat = moduli.from_table([0.25, 0.5], [0.0, 0.1])
        with pytest.raises(DegenerateModulusError):
            fields.dini_lp_constant(u, flat, [u.origin_index()], [0.125])

    def test_drift_field_uses_euclidean_norm(self):
        def drift(pts):
            pts = np.asarray(pts, dtype=float)
            out = np.zeros_like(pts)
            out[..., 0] = pts[..., 0]
            out[..., 1] = pts[..., 1]
            return out

        u = grid(N=129, f=drift, components=2)
        # |B(x)-B(0)| = |x|; avg against tau=r matches the scalar radial case
        rep = fields.dini_lp_constant(u, moduli.power(1.0), [u.origin_index()],
                                      [0.5])
        assert 0.5 < rep.C_fit < 1.0


def node_jets(u, idx):
    """The Hessian and gradient at an interior node, from ``interior_jets``
    of its 3^n block."""
    block = u.values[tuple(slice(i - 1, i + 2) for i in idx)]
    H, G = fields.interior_jets(block, u.n, u.h)
    return H.reshape(u.n, u.n), G.reshape(u.n)


class TestJets:
    @pytest.mark.parametrize("n", [2, 3])
    def test_exact_on_quadratics(self, n):
        N, idx = {2: (33, (20, 9)), 3: (17, (5, 11, 8))}[n]
        M = SymMatrix.from_matrix(np.array([[2.0, 0.7, 0.1], [0.7, -1.0, 0.4],
                                            [0.1, 0.4, 0.5]])[:n, :n])
        b = np.array([0.3, -0.4, 0.2])[:n]
        q = fields.Polynomial2D(1.0, b, M)
        u = fields.sample_function(q, n=n, N=N)
        x = u.node_coords(idx)
        H, G = node_jets(u, idx)
        np.testing.assert_allclose(H, M.matrix, atol=1e-11)
        np.testing.assert_allclose(G, q.gradient(x), atol=1e-11)
        # the jets agree at every interior node of the whole grid
        H, G = fields.interior_jets(u.values, n, u.h)
        pts = np.stack(u.meshgrid(), axis=-1)[(slice(1, -1),) * n]
        np.testing.assert_allclose(H, q.hessian(pts), atol=1e-11)
        np.testing.assert_allclose(G, q.gradient(pts), atol=1e-11)

    def test_constant_field(self):
        u = grid(N=9, f=lambda pts: np.full(np.asarray(pts).shape[:-1], 4.0))
        H, G = node_jets(u, (4, 4))
        np.testing.assert_array_equal(G, [0, 0])
        np.testing.assert_array_equal(H, np.zeros((2, 2)))

    def test_second_order_on_quartic(self):
        # H11 of x1^4 at origin is 0; central diff error is 2h^2, ratio 4
        errs = []
        for N in (17, 33):
            u = grid(N=N, f=lambda pts: np.asarray(pts)[..., 0] ** 4)
            errs.append(abs(node_jets(u, u.origin_index())[0][0, 0]))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=1e-6)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stencil_weights_are_one_or_two_in_size(self, n):
        # interior_jets adds or subtracts each term, and the solver's
        # Jacobian doubles a quotient instead of dividing a doubled slope:
        # both are exact only for weights +-1 and +-2
        for entry in fields.central_stencil(n):
            assert set(entry.weights) <= {1.0, -1.0, 2.0, -2.0}
            assert len(entry.weights) == len(entry.offsets) >= 2

    @pytest.mark.parametrize("n, N", [(2, 17), (3, 9)])
    def test_jets_are_the_weighted_sums_and_slabs_give_their_rows(self, n, N):
        # bit for bit sum_k w_k u(x + h off_k) / (c h^p) in stencil order,
        # signed zeros included; a slab of rows with one halo row each side
        # gives the jets of its inner rows
        rng = np.random.default_rng(n)
        vals = rng.standard_normal((N,) * n) * 10.0 ** rng.integers(-3, 4, (N,) * n)
        vals[rng.random(vals.shape) < 0.3] = -0.0
        h = 2.0 / (N - 1)
        H, G = fields.interior_jets(vals, n, h)
        for entry in fields.central_stencil(n):
            terms = [w * fields.shifted_interior(vals, off)
                     for off, w in zip(entry.offsets, entry.weights)]
            want = sum(terms[1:], terms[0]) / (entry.c * h**entry.p)
            got = G[..., entry.index[0]] if entry.p == 1 else H[(...,) + entry.index]
            assert got.tobytes() == want.tobytes()
            if entry.p == 2:
                assert H[(...,) + entry.index[::-1]].tobytes() == want.tobytes()
        for start, stop in [(0, 1), (2, 5), (N - 4, N - 2)]:
            Hs, Gs = fields.interior_jets(vals[start : stop + 2], n, h)
            assert Hs.shape == (stop - start,) + H.shape[1:]
            assert Hs.tobytes() == H[start:stop].tobytes()
            assert Gs.tobytes() == G[start:stop].tobytes()



class TestFileIO:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        u = fields.GridField(2, 17, 1.5, rng.standard_normal((17, 17)))
        path = tmp_path / "u.field"
        fields.save_field(u, path)
        v = fields.load_field(path)
        assert (v.n, v.N, v.L, v.components) == (2, 17, 1.5, 1)
        np.testing.assert_array_equal(u.values, v.values)

    def test_vector_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        u = fields.GridField(2, 9, 1.0, rng.standard_normal((9, 9, 2)), components=2)
        path = tmp_path / "b.field"
        fields.save_field(u, path)
        v = fields.load_field(path)
        np.testing.assert_array_equal(u.values, v.values)

    def test_header_format(self, tmp_path):
        u = grid(N=5)
        path = tmp_path / "z.field"
        fields.save_field(u, path)
        header = path.read_text().splitlines()[0]
        assert header.split() == ["2", "5", "1", "1"]

    @pytest.mark.parametrize("n, N, components", [
        (2, 9, 8),      # N^n * components % 8 == 0: no short last line
        (2, 257, 1),    # N^2 % 8 != 0
        (2, 33, 2),
        (3, 17, 1),
    ])
    def test_bytes_match_per_value_writer(self, tmp_path, monkeypatch, n, N, components):
        rng = np.random.default_rng(N)
        shape = (N,) * n + (() if components == 1 else (components,))
        vals = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        vals.reshape(-1)[:7] = [0.0, -0.0, 1.0, 0.1, 5e-324, -1.7976931348623157e308,
                                1.7976931348623157e308]
        u = fields.GridField(n, N, 1.25, vals, components)
        path = tmp_path / "u.field"
        flat = vals.reshape(-1)
        want = [f"{n} {N} {1.25:.17g} {components}\n"] + [
            " ".join(struct.pack(">d", v).hex() for v in flat[k : k + 8]) + "\n"
            for k in range(0, flat.size, 8)]
        # small blocks, so that every field here crosses many of them
        for chunk in CHUNK_SIZES:
            monkeypatch.setattr(fields, "_CHUNK_VALUES", chunk)
            fields.save_field(u, path)
            got = path.read_text().splitlines(keepends=True)
            assert len(got) == len(want)
            for k, (a, b) in enumerate(zip(got, want)):   # line by line: a short failure diff
                assert a == b, f"line {k} at {chunk} values a block"
            loaded = fields.load_field(path).values
            np.testing.assert_array_equal(loaded.view(np.int64), vals.view(np.int64))

    @pytest.mark.parametrize("layout", ["three_words_a_line", "break_between_hex_pairs", "crlf",
                                        "one_line", "no_separators"])
    def test_load_accepts_whitespace_between_hex_pairs(self, tmp_path, monkeypatch, layout):
        # bytes.fromhex skips ASCII whitespace between hex pairs, so these
        # bodies load as save_field's own does, wherever a block is cut
        vals = np.random.default_rng(5).standard_normal((17, 17))
        words = [struct.pack(">d", v).hex() for v in vals.reshape(-1)]
        body = {
            "three_words_a_line": "".join(" ".join(words[k : k + 3]) + "\n"
                                          for k in range(0, len(words), 3)),
            "break_between_hex_pairs": "".join(w[:6] + "\n" + w[6:] + " " for w in words),
            "crlf": "".join(" ".join(words[k : k + 8]) + "\r\n" for k in range(0, len(words), 8)),
            "one_line": " \t ".join(words) + "\n",
            "no_separators": "".join(words),
        }[layout]
        path = tmp_path / "u.field"
        path.write_bytes(b"2 17 1 1\n" + body.encode())
        for chunk in CHUNK_SIZES:
            monkeypatch.setattr(fields, "_CHUNK_VALUES", chunk)
            loaded = fields.load_field(path).values
            np.testing.assert_array_equal(loaded.view(np.int64), vals.view(np.int64))

    def test_break_inside_hex_pair_rejected(self, tmp_path, monkeypatch):
        words = [struct.pack(">d", 1.0).hex()] * 25
        words[20] = words[20][:5] + "\n" + words[20][5:]
        path = tmp_path / "bad.field"
        path.write_text("2 5 1 1\n" + " ".join(words) + "\n")
        for chunk in CHUNK_SIZES:
            monkeypatch.setattr(fields, "_CHUNK_VALUES", chunk)
            with pytest.raises(ConfigError, match="not hex words"):
                fields.load_field(path)

    def test_header_claiming_more_values_than_body_allocates_nothing(self, tmp_path):
        # a buffer for the header's 100001^3 values would take 8e15 bytes:
        # allocating it first would raise MemoryError, not this ConfigError
        path = tmp_path / "bad.field"
        path.write_text("3 100001 1 1\n" + " ".join([struct.pack(">d", 1.0).hex()] * 25) + "\n")
        with pytest.raises(ConfigError, match="has 200 bytes"):
            fields.load_field(path)

    @pytest.mark.parametrize("header", ["2 abc 1 1", "2 5 x 1", "2.0 5 1 1", "2 -5 1 1",
                                        "2 5 nan 1", "2 5 inf 1"])
    def test_malformed_header_rejected(self, tmp_path, header):
        path = tmp_path / "bad.field"
        path.write_text(header + "\n" + "0.0 " * 25 + "\n")
        with pytest.raises(ConfigError):
            fields.load_field(path)

    def test_truncated_body_rejected(self, tmp_path):
        path = tmp_path / "bad.field"
        path.write_text("2 5 1 1\n" + " ".join([struct.pack(">d", 1.0).hex()] * 3) + "\n")
        with pytest.raises(ConfigError, match="has 24 bytes"):
            fields.load_field(path)

    def test_extra_hex_word_rejected(self, tmp_path):
        path = tmp_path / "bad.field"
        fields.save_field(grid(N=5), path)
        path.write_text(path.read_text() + "3ff0000000000000\n")
        with pytest.raises(ConfigError, match="expected 25 values"):
            fields.load_field(path)

    def test_non_ascii_body_rejected(self, tmp_path):
        path = tmp_path / "bad.field"
        fields.save_field(grid(N=5), path)
        path.write_bytes(path.read_bytes() + b"\xff\n")
        with pytest.raises(ConfigError, match="not hex words"):
            fields.load_field(path)

    def test_decimal_body_rejected(self, tmp_path):
        # the body older versions wrote: %.17g values, 8 to a line
        path = tmp_path / "old.field"
        flat = np.linspace(-1.0, 1.0, 25)
        path.write_text("2 5 1 1\n" + "".join(
            " ".join("%.17g" % v for v in flat[k : k + 8]) + "\n" for k in range(0, 25, 8)))
        with pytest.raises(ConfigError, match="regenerate"):
            fields.load_field(path)
