import numpy as np
import pytest

from rieszvox import SetTriple, generate, symmetric_difference_measure
from rieszvox.sweep import (
    CSV_COLUMNS,
    SweepConfig,
    apply_family,
    base_triple,
    config_from_mapping,
    level_medians,
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
        m = parse_config(str(p))
        cfg = config_from_mapping(m)
        assert cfg.family == "skew"
        assert cfg.levels == (0.0, 0.1)
        assert cfg.samples == 2

    def test_parse_config_bad_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("family skew\n")
        with pytest.raises(ValueError):
            parse_config(str(p))

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            config_from_mapping({"samples": "2", "wobble": "1"})

    def test_every_field_from_strings(self):
        m = {
            "dim": "3", "spacing": "0.125", "seed": "4", "family": "skew",
            "levels": "0.1, 0.3", "samples": "2", "out_csv": "a.csv", "out_svg": "b.svg",
        }
        cfg = config_from_mapping(m)
        assert cfg == SweepConfig(3, 0.125, 4, "skew", (0.1, 0.3), 2, "a.csv", "b.svg")
        assert [type(getattr(cfg, k)) for k in m] == [
            int, float, int, str, tuple, int, str, str,
        ]
        with pytest.raises(ValueError, match="wobble"):
            config_from_mapping({**m, "wobble": "1"})

    @pytest.mark.parametrize("dim", [0, 4])
    def test_unsupported_dim_rejected(self, dim):
        with pytest.raises(ValueError, match="dim must be 1, 2, or 3"):
            SweepConfig(dim=dim)

    @pytest.mark.parametrize("family", ["shear", "skew"])
    def test_column_families_need_two_dims(self, family):
        with pytest.raises(ValueError, match="needs dim >= 2"):
            SweepConfig(family=family, dim=1)

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

    def test_level_medians(self):
        med = level_medians(self._rows(), "delta")
        assert list(med) == [0.1, 0.2]
        assert med[0.1] == pytest.approx(0.03)
        assert med[0.2] == pytest.approx(0.08)
