import hashlib
import warnings

import numpy as np
import pytest
from scipy.stats import spearmanr

from rieszvox import SetTriple, generate, symmetric_difference_measure
from rieszvox.grid import check_integer
from rieszvox.sweep import (
    CSV_COLUMNS,
    SweepConfig,
    apply_family,
    base_triple,
    parse_config,
    perturb_noise,
    perturb_relocate,
    read_csv,
    render_svg,
    run_sweep,
    skew_columns,
    spearman_delta_epsilon,
    write_csv,
)

from conftest import set_digest

H = 1.0 / 48


class TestConfig:
    def test_defaults(self):
        cfg = SweepConfig()
        assert cfg.family == "noise"
        assert list(cfg.levels) == sorted(cfg.levels)

    def test_unsorted_levels_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig(levels=(0.2, 0.1))

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig(samples=0)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            SweepConfig(family="wobble")

    def test_parse_config(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# comment\nfamily = skew\nlevels = 0.0,0.1 # inline\n\nsamples=2\n")
        cfg = SweepConfig(**parse_config(str(p)))
        assert cfg.family == "skew"
        assert cfg.levels == (0.0, 0.1)
        assert cfg.samples == 2

    def test_parse_config_bad_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("family skew\n")
        with pytest.raises(ValueError):
            parse_config(str(p))

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("samples = 2\nwobble = 1\n")
        with pytest.raises(ValueError, match="unknown config key 'wobble'"):
            parse_config(str(p))

    def test_repeated_key_rejected(self, tmp_path):
        # the last value used to win without a word
        p = tmp_path / "c.cfg"
        p.write_text("seed = 1\nsamples = 2\nseed = 2\n")
        with pytest.raises(ValueError, match="config key 'seed' given twice"):
            parse_config(str(p))

    def test_every_field_from_strings(self, tmp_path):
        text = (
            "dim = 3\nspacing = 0.125\nseed = 4\nfamily = skew\nlevels = 0.1, 0.3\n"
            "samples = 2\nout_csv = a.csv\nout_svg = b.svg\n"
        )
        p = tmp_path / "c.cfg"
        p.write_text(text)
        m = parse_config(str(p))
        cfg = SweepConfig(**m)
        assert cfg == SweepConfig(3, 0.125, 4, "skew", (0.1, 0.3), 2, "a.csv", "b.svg")
        assert [type(getattr(cfg, k)) for k in m] == [
            int, float, int, str, tuple, int, str, str,
        ]
        p.write_text(text + "wobble = 1\n")
        with pytest.raises(ValueError, match="wobble"):
            parse_config(str(p))

    def test_bad_value_raises_its_checks_message(self):
        # one message, the check's own, not wrapped in a second naming
        with pytest.raises(ValueError) as want:
            check_integer("x", "seed", low=0)
        with pytest.raises(ValueError) as got:
            SweepConfig(seed="x")
        assert str(got.value) == str(want.value) == "seed must be an integer, got x"

    @pytest.mark.parametrize("dim", [0, 4])
    def test_unsupported_dim_rejected(self, dim):
        with pytest.raises(ValueError, match="dim must be 1, 2, or 3"):
            SweepConfig(dim=dim)

    @pytest.mark.parametrize("family", ["shear", "skew"])
    def test_column_families_need_two_dims(self, family):
        with pytest.raises(ValueError, match="needs dim >= 2"):
            SweepConfig(family=family, dim=1)

    @pytest.mark.parametrize("family", ["shear", "skew"])
    def test_apply_family_column_families_need_two_dims(self, family):
        # at dim 1 shear used to scale each set by the level, and skew
        # raised an IndexError
        ball = generate("ball", {"dim": 1, "spacing": 1 / 16, "radius": 1.0})
        with pytest.raises(ValueError, match=f"family '{family}' needs dim >= 2"):
            apply_family([ball, ball, ball], family, 0.1, np.random.default_rng(0))

    def test_apply_family_unknown_family(self):
        ball = generate("ball", {"dim": 2, "spacing": 1 / 16, "radius": 0.5})
        with pytest.raises(ValueError, match="unknown family 'twist'"):
            apply_family([ball, ball, ball], "twist", 0.1, np.random.default_rng(0))

    @pytest.mark.parametrize("family", ["noise", "relocate"])
    def test_one_dim_families_run(self, family):
        cfg = SweepConfig(family=family, dim=1, spacing=1 / 16, levels=(0.1,), samples=1)
        assert len(run_sweep(cfg, max_workers=1)) == 1


class TestPerturbations:
    def _ball(self, r=0.6):
        return generate("ball", {"dim": 2, "spacing": H, "radius": r})

    def test_noise_preserves_count(self):
        e = self._ball()
        rng = np.random.default_rng(0)
        for p in (0.0, 0.05, 0.2, 0.5):
            out = perturb_noise(e, p, rng)
            assert out.count == e.count

    def test_noise_level_zero_identity(self):
        e = self._ball()
        out = perturb_noise(e, 0.0, np.random.default_rng(0))
        assert out == e

    def test_noise_moves_boundary_only(self):
        e = self._ball()
        out = perturb_noise(e, 0.3, np.random.default_rng(1))
        moved = symmetric_difference_measure(e, out)
        assert 0 < moved < e.measure

    def test_relocate_preserves_count(self):
        e = self._ball()
        out = perturb_relocate(e, 0.25)
        assert out.count == e.count
        # a quarter of the measure moved out and the same amount appeared far
        assert symmetric_difference_measure(e, out) == pytest.approx(
            2 * 0.25 * e.measure, rel=0.05
        )

    def test_relocate_zero_identity(self):
        e = self._ball()
        assert perturb_relocate(e, 0.0) == e

    def test_skew_columns_preserves_count(self):
        e = self._ball()
        out = skew_columns(e, [0.4])
        assert out.count == e.count

    def test_skew_zero_identity(self):
        e = self._ball()
        assert skew_columns(e, [0.0]) == e

    def test_apply_family_measure_preservation(self):
        rng = np.random.default_rng(3)
        t = base_triple(2, H, rng)
        for fam in ("noise", "relocate", "skew"):
            out = apply_family(t, fam, 0.15, np.random.default_rng(4))
            for a, b in zip(t, out):
                assert a.count == b.count, fam


# set_digest of each perturbed ball, noise rng seeded by 8.  A centred ball
# has many cells at equal distance from its centroid, so these catch a change
# in how _ordered_by_distance breaks ties: relocate at every dim, noise at d=1.
PERTURB_SPACING = {1: 1 / 64, 2: 1 / 32, 3: 1 / 16}
PERTURB_DIGESTS = {
    (1, 0.1): ("1d93e12c8f64243f", "1d6c317fd105df75"),
    (1, 0.3): ("1d93e12c8f64243f", "bf950b17b2567dd2"),
    (2, 0.1): ("2b34764707aea2a5", "c469ad7eaaf90787"),
    (2, 0.3): ("6f26e026d6ba5a54", "bb9b476c8f82a10a"),
    (3, 0.1): ("3497bdf7f9da04fc", "7022056f97b7ed79"),
    (3, 0.3): ("f497555e1bd51f21", "cc42f6385041032d"),
}


@pytest.mark.parametrize("dim,level", PERTURB_DIGESTS)
def test_perturbations_pinned(dim, level):
    e = generate("ball", {"dim": dim, "spacing": PERTURB_SPACING[dim], "radius": 0.5})
    noise = perturb_noise(e, level, np.random.default_rng(8))
    relocated = perturb_relocate(e, level)
    assert (set_digest(noise), set_digest(relocated)) == PERTURB_DIGESTS[dim, level]


class TestRunner:
    def _small(self, **kw):
        base = dict(
            dim=2, spacing=H, seed=5, family="noise", levels=(0.0, 0.1), samples=2
        )
        base.update(kw)
        return SweepConfig(**base)

    def test_deterministic_across_scheduling(self):
        cfg = self._small()
        a = run_sweep(cfg, max_workers=1)
        b = run_sweep(cfg, max_workers=4)
        for x, y in zip(a, b):
            assert (x.seed, x.delta, x.epsilon_max, x.tau_margin) == (
                y.seed,
                y.delta,
                y.epsilon_max,
                y.tau_margin,
            )

    def test_record_order_is_level_major(self):
        recs = run_sweep(self._small())
        assert [r.level for r in recs] == [0.0, 0.0, 0.1, 0.1]

    def test_csv_roundtrip(self, tmp_path):
        recs = run_sweep(self._small())
        p = tmp_path / "s.csv"
        write_csv(recs, str(p))
        header = p.read_text().splitlines()[0]
        assert header == CSV_COLUMNS
        assert header == (
            "family,level,seed,delta,epsilon_max,tau_margin,t_value,lambda_value,runtime_ms"
        )
        rows = read_csv(str(p))
        assert len(rows) == len(recs)
        for rec, row in zip(recs, rows):
            assert row["family"] == rec.family
            assert row["delta"] == pytest.approx(rec.delta, rel=1e-9)
            assert row["seed"] == rec.seed

    def test_csv_deterministic_modulo_runtime(self, tmp_path):
        cfg = self._small()
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_sweep(cfg), str(pa))
        write_csv(run_sweep(cfg), str(pb))

        def strip_runtime(path):
            return [
                ",".join(line.split(",")[:-1])
                for line in path.read_text().splitlines()
            ]

        assert strip_runtime(pa) == strip_runtime(pb)


class TestRendering:
    def test_svg_from_csv_only(self, tmp_path):
        recs = run_sweep(
            SweepConfig(
                dim=2, spacing=H, seed=7, family="skew", levels=(0.0, 0.2), samples=2
            )
        )
        csv_path = tmp_path / "s.csv"
        write_csv(recs, str(csv_path))
        svg1 = tmp_path / "a.svg"
        svg2 = tmp_path / "b.svg"
        render_svg(str(csv_path), str(svg1))
        render_svg(str(csv_path), str(svg2))
        text = svg1.read_text()
        assert text.startswith("<svg")
        assert text.count("<circle") == len(recs) + 2  # points plus legend dots
        assert svg1.read_bytes() == svg2.read_bytes()

    def test_svg_bytes_pinned(self, tmp_path):
        # a 12-row noise sweep; the digest catches any change to the SVG's
        # layout, element order or number formats
        cfg = SweepConfig(
            dim=2, spacing=1 / 32, seed=0, family="noise", levels=(0.0, 0.1, 0.2), samples=4
        )
        csv_path, svg_path = tmp_path / "s.csv", tmp_path / "s.svg"
        write_csv(run_sweep(cfg), str(csv_path))
        render_svg(str(csv_path), str(svg_path))
        data = svg_path.read_bytes()
        assert (len(data), hashlib.sha256(data).hexdigest()) == (
            3446,
            "45d9e9b0b1632288c1a65703f10e090717484f812b312b37353d648389ca85db",
        )

    def test_empty_csv_rejected(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text(CSV_COLUMNS + "\n")
        with pytest.raises(ValueError):
            render_svg(str(p), str(tmp_path / "e.svg"))


class TestStatistics:
    def _rows(self):
        return [
            {"level": 0.1, "delta": 0.01 * i, "epsilon_max": 0.02 * i}
            for i in range(1, 6)
        ] + [
            {"level": 0.2, "delta": 0.01 * i + 0.05, "epsilon_max": 0.02 * i + 0.1}
            for i in range(1, 6)
        ]

    def test_spearman_perfect_monotone(self):
        assert spearman_delta_epsilon(self._rows()) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [2, 3, 7, 40])
    def test_spearman_matches_scipy_with_ties(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            # few distinct values, so ties are common; two rows keep each column varying
            d, e = rng.integers(0, 4, n) * 0.01, rng.integers(0, 3, n) * 0.1
            d[:2], e[:2] = (0.0, 0.03), (0.2, 0.0)
            rows = [{"delta": a, "epsilon_max": b} for a, b in zip(d, e)]
            assert spearman_delta_epsilon(rows) == pytest.approx(spearmanr(d, e)[0], abs=1e-12)

    @pytest.mark.parametrize(
        "delta,eps",
        [([], []), ([0.1], [0.2]), ([0.1, 0.1, 0.1], [0.1, 0.2, 0.3]), ([0.1, 0.2], [0.3, 0.3])],
    )
    def test_spearman_nan_without_warning(self, delta, eps):
        rows = [{"delta": a, "epsilon_max": b} for a, b in zip(delta, eps)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(spearman_delta_epsilon(rows))
