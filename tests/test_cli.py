import argparse
import warnings

import pytest

from rieszvox import load, symmetrize
from rieszvox.cli import build_parser, main


def _gen(tmp_path, name, *extra):
    out = tmp_path / name
    args = ["gen", "ball", "--param", "radius=0.4", "--out", str(out)]
    rc = main(args + list(extra))
    assert rc == 0
    return out


class TestGen:
    def test_creates_loadable_file(self, tmp_path, capsys):
        out = _gen(tmp_path, "b.vxg")
        e = load(str(out))
        assert e.dim == 2
        assert e.count > 0
        assert "cells" in capsys.readouterr().out

    def test_seed_before_or_after_subcommand(self, tmp_path):
        a = tmp_path / "a.vxg"
        b = tmp_path / "b.vxg"
        blob = ["blob", "--param", "radius=0.35", "--param", "steps=4"]
        assert main(["--seed", "11", "gen"] + blob + ["--out", str(a)]) == 0
        assert main(["gen"] + blob + ["--seed", "11", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_spacing_flag(self, tmp_path):
        out = _gen(tmp_path, "c.vxg", "--spacing", "0.125")
        assert load(str(out)).spacing == pytest.approx(0.125)

    def test_bad_kind_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["gen", "cube", "--out", str(tmp_path / "x.vxg")])

    def test_ellipsoid_shape_param(self, tmp_path, capsys):
        # --param shape=... arrives as a flat list of dim^2 numbers
        paths = [tmp_path / "shape.vxg", tmp_path / "axes.vxg"]
        for path, param in zip(paths, ("shape=4,0,0,4", "axes=0.5,0.5")):
            assert main(["gen", "ellipsoid", "--param", param, "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert main(["gen", "ellipsoid", "--param", "shape=4,0,4", "--out", str(paths[0])]) == 2
        assert "shape needs 4 numbers" in capsys.readouterr().err

    def test_bad_param_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["gen", "ball", "--param", "radius", "--out", str(tmp_path / "x.vxg")])


class TestSymmetrize:
    def _blob(self, tmp_path):
        out = tmp_path / "e.vxg"
        rc = main(
            [
                "gen", "blob", "--seed", "3",
                "--param", "radius=0.35", "--param", "steps=5",
                "--out", str(out),
            ]
        )
        assert rc == 0
        return out

    def test_star_idempotent_in_bytes(self, tmp_path):
        src = self._blob(tmp_path)
        once = tmp_path / "s1.vxg"
        twice = tmp_path / "s2.vxg"
        assert main(["symmetrize", str(src), "--op", "star", "--out", str(once)]) == 0
        assert main(["symmetrize", str(once), "--op", "star", "--out", str(twice)]) == 0
        assert once.read_bytes() == twice.read_bytes()

    def test_dagger_fixes_daggerstar_output(self, tmp_path):
        src = self._blob(tmp_path)
        ds = tmp_path / "ds.vxg"
        again = tmp_path / "ds_dagger.vxg"
        assert main(["symmetrize", str(src), "--op", "daggerstar", "--out", str(ds)]) == 0
        assert main(["symmetrize", str(ds), "--op", "dagger", "--out", str(again)]) == 0
        assert ds.read_bytes() == again.read_bytes()

    def test_measure_preserved(self, tmp_path, capsys):
        src = self._blob(tmp_path)
        out = tmp_path / "s.vxg"
        main(["symmetrize", str(src), "--op", "bullet", "--out", str(out)])
        assert load(str(out)).count == load(str(src)).count
        text = capsys.readouterr().out
        assert "before" in text and "after" in text

    def test_op_choices_are_the_library_table(self):
        sub = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        op = next(a for a in sub.choices["symmetrize"]._actions if a.dest == "op")
        assert tuple(op.choices) == tuple(symmetrize.OPS)

    def test_bad_op_exits(self, tmp_path):
        src = self._blob(tmp_path)
        with pytest.raises(SystemExit):
            main(["symmetrize", str(src), "--op", "twirl", "--out", str(tmp_path / "x")])


class TestTripleCommands:
    def _triple(self, tmp_path):
        paths = []
        for i, r in enumerate((0.5, 0.45, 0.4)):
            p = tmp_path / f"t{i}.vxg"
            main(["gen", "ball", "--param", f"radius={r}", "--out", str(p)])
            paths.append(str(p))
        return paths

    def test_deficit_output(self, tmp_path, capsys):
        rc = main(["deficit"] + self._triple(tmp_path))
        assert rc == 0
        text = capsys.readouterr().out
        fields = dict(
            line.rsplit(None, 1) for line in text.strip().splitlines()
        )
        delta = float(fields["delta"])
        assert 0 <= delta < 0.05
        assert float(fields["Lambda"]) > float(fields["T"]) > 0

    def test_fit_output(self, tmp_path, capsys):
        rc = main(["fit"] + self._triple(tmp_path))
        assert rc == 0
        text = capsys.readouterr().out
        assert "shape matrix" in text
        assert "epsilon" in text


class TestErrors:
    def test_missing_file_is_an_error_not_a_traceback(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.vxg")
        rc = main(["deficit", missing, missing, missing])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("rieszvox: error: ")
        assert "missing.vxg" in err

    def test_corrupt_file_is_an_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.vxg"
        bad.write_bytes(b"NOPE" + bytes(64))
        assert main(["symmetrize", str(bad), "--op", "star", "--out", str(tmp_path / "o")]) == 2
        assert "bad magic" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "param,message",
        [
            ("center=nan,0", "center must be finite"),
            ("radius=nan", "radius must be finite and positive"),
            ("radius=-1", "radius must be finite and positive"),
            # a list and a word used to escape as a TypeError traceback and
            # as a float() message that did not name radius
            ("radius=1,2", "radius must be finite and positive, got [1.0, 2.0]"),
            ("radius=abc", "radius must be finite and positive, got abc"),
            ("center=abc", "center needs 2 numbers at dim 2, got abc"),
            ("center=1,2,3", "center needs 2 numbers at dim 2, got [1.0, 2.0, 3.0]"),
        ],
    )
    def test_bad_ball_names_the_field(self, tmp_path, capsys, param, message):
        out = tmp_path / "x.vxg"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["gen", "ball", "--param", param, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "param,message",
        [
            ("shape=abc", "shape needs 4 numbers at dim 2, got abc"),
            ("axes=1,2,3", "axes needs 2 numbers at dim 2, got [1.0, 2.0, 3.0]"),
            ("center=abc", "center needs 2 numbers at dim 2, got abc"),
        ],
    )
    def test_bad_ellipsoid_names_the_field(self, tmp_path, capsys, param, message):
        out = tmp_path / "x.vxg"
        assert main(["gen", "ellipsoid", "--param", param, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "param,message",
        [
            ("step=1,2", "step must be finite and positive, got [1.0, 2.0]"),
            ("jitter=1,2", "jitter must lie in [0, 1), got [1.0, 2.0]"),
            ("jitter=abc", "jitter must lie in [0, 1), got abc"),
            ("spacing=abc", "spacing must be finite and positive, got abc"),
        ],
    )
    def test_bad_blob_number_names_the_field(self, tmp_path, capsys, param, message):
        out = tmp_path / "x.vxg"
        assert main(["gen", "blob", "--param", param, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("param", ["steps=5.5", "supersample=2.5"])
    def test_fractional_integer_param_exits(self, tmp_path, capsys, param):
        # steps=5.5 used to write the steps=5 blob
        out = tmp_path / "x.vxg"
        assert main(["gen", "blob", "--param", param, "--out", str(out)]) == 2
        name, value = param.split("=")
        assert f"{name} must be an integer, got {value}" in capsys.readouterr().err
        assert not out.exists()


class TestSweep:
    ARGS = [
        "sweep", "--family", "skew", "--levels", "0.0,0.2", "--samples", "2",
        "--spacing", "0.02", "--seed", "9",
    ]

    def test_writes_csv_and_svg(self, tmp_path, capsys):
        rc = main(self.ARGS + ["--out-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "sweep.csv").exists()
        assert (tmp_path / "sweep.svg").exists()
        assert "spearman" in capsys.readouterr().out

    def test_deterministic_modulo_runtime(self, tmp_path):
        da, db = tmp_path / "a", tmp_path / "b"
        main(self.ARGS + ["--out-dir", str(da)])
        main(self.ARGS + ["--out-dir", str(db)])

        def stripped(d):
            return [
                ",".join(line.split(",")[:-1])
                for line in (d / "sweep.csv").read_text().splitlines()
            ]

        assert stripped(da) == stripped(db)

    def test_config_file_with_override(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("family = skew\nlevels = 0.0, 0.2\nsamples = 3\nspacing = 0.02\n")
        rc = main(
            ["sweep", "--config", str(cfg), "--samples", "2", "--out-dir", str(tmp_path)]
        )
        assert rc == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 2  # header plus overridden samples per level

    def test_given_flags_beat_config_file(self, tmp_path):
        text = "family = skew\nlevels = 0.0\nsamples = 1\n"
        (tmp_path / "a.cfg").write_text(text + "spacing = 0.0625\nseed = 5\n")
        (tmp_path / "b.cfg").write_text(text + "spacing = 0.125\nseed = 7\n")
        flags = ["--spacing", "0.125", "--seed", "7"]
        for cfg, extra, out in (("a", [], "file"), ("a", flags, "flags"), ("b", [], "want")):
            args = ["sweep", "--config", str(tmp_path / f"{cfg}.cfg"), *extra]
            assert main(args + ["--out-dir", str(tmp_path / out)]) == 0

        def row(out):  # the record without runtime_ms
            return (tmp_path / out / "sweep.csv").read_text().splitlines()[1].rsplit(",", 1)[0]

        assert row("file").split(",")[2] == "5000015"
        assert row("flags").split(",")[2] == "7000021"  # 7 * 1000003
        assert row("flags") == row("want") != row("file")

    @pytest.mark.parametrize("extra", [["--family", "skew", "--dim", "1"], ["--dim", "4"]])
    def test_unsupported_dim_is_an_error(self, tmp_path, capsys, extra):
        # toy spacing: without the dim check, dim=4 would rasterize a 4-d box
        args = ["sweep", "--samples", "1", "--spacing", "0.5", "--out-dir", str(tmp_path)]
        rc = main(args + extra)
        assert rc == 2
        assert capsys.readouterr().err.startswith("rieszvox: error: ")
        assert not (tmp_path / "sweep.csv").exists()


    def test_bad_level_names_the_field(self, tmp_path, capsys):
        rc = main(["sweep", "--levels", "0.2,x", "--out-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("rieszvox: error: levels: ")
        assert "'0.2,x'" in err
        assert not (tmp_path / "sweep.csv").exists()

    def test_nan_level_is_an_error(self, tmp_path, capsys):
        # a NaN level used to write an unperturbed record with level=nan
        rc = main(["sweep", "--levels", "nan", "--samples", "1", "--out-dir", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("rieszvox: error: levels: ")
        assert not (tmp_path / "sweep.csv").exists()

    def test_bad_config_value_names_the_field(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("family = skew\nsamples = two\n")
        rc = main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "samples: invalid value 'two'" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()


class TestVerify:
    def test_fast_suite_passes(self, capsys):
        assert main(["verify", "--suite", "fast"]) == 0
        text = capsys.readouterr().out
        assert "ok" in text
