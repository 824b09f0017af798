import argparse
import pathlib
import re
import shlex
import warnings

import pytest

from rieszvox import grid, load, sweep, symmetrize, verify
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

    def test_seed_before_or_after_subcommand(self, tmp_path, capsys):
        # a flag belongs to its subcommand: after the name it works, before
        # it argparse rejects it
        a = tmp_path / "a.vxg"
        b = tmp_path / "b.vxg"
        blob = ["blob", "--param", "radius=0.35", "--param", "steps=4"]
        with pytest.raises(SystemExit) as exc:
            main(["--seed", "11", "gen"] + blob + ["--out", str(a)])
        assert exc.value.code == 2
        assert "usage: rieszvox" in capsys.readouterr().err
        assert not a.exists()
        assert main(["gen"] + blob + ["--seed", "11", "--out", str(b)]) == 0
        assert main(["gen"] + blob + ["--out", str(a), "--seed", "11"]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert main(["gen"] + blob + ["--out", str(a)]) == 0  # seed 0
        assert a.read_bytes() != b.read_bytes()

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

    def test_bad_param_exits(self, tmp_path, capsys):
        # a pair without "=" used to raise a bare SystemExit with exit code 1
        assert main(["gen", "ball", "--param", "radius", "--out", str(tmp_path / "x.vxg")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("rieszvox: error: bad --param 'radius', expected key=value")
        assert not (tmp_path / "x.vxg").exists()

    @pytest.mark.parametrize("flag,param", [("--spacing=0.5", "spacing=0.25"), ("--dim=2", "dim=3")])
    def test_key_as_flag_and_param_exits(self, tmp_path, capsys, flag, param):
        # --param spacing=0.25 used to silently beat --spacing 0.5
        out = tmp_path / "x.vxg"
        assert main(["gen", "ball", flag, "--param", param, "--out", str(out)]) == 2
        key = param.split("=")[0]
        err = capsys.readouterr().err
        assert err.startswith(f"rieszvox: error: {key} given both as a flag and as --param")
        assert not out.exists()

    def test_repeated_param_exits(self, tmp_path, capsys):
        # --param radius=2 used to silently beat --param radius=1
        out = tmp_path / "x.vxg"
        argv = ["gen", "ball", "--param", "radius=1", "--param", "radius=2", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("rieszvox: error: --param radius given twice")
        assert not out.exists()

    def test_integral_float_flag_is_an_integer(self, tmp_path):
        # argparse used to reject --dim 2.0, while --param dim=2.0 ran
        paths = [tmp_path / "a.vxg", tmp_path / "b.vxg", tmp_path / "c.vxg"]
        for path, dim in zip(paths, ("2.0", "2", None)):
            flags = ["--out", str(path)] + (["--dim", dim] if dim else ["--param", "dim=2.0"])
            assert main(["gen", "ball", "--param", "radius=0.4"] + flags) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()

    def test_integer_seed_text_is_read_exactly(self, tmp_path):
        # 2**53 + 1 would round to 2**53 on its way through a float
        seeds = ("9007199254740993", "9007199254740992", "9007199254740993.0")
        paths = [tmp_path / f"{i}.vxg" for i in range(3)]
        for path, seed in zip(paths, seeds):
            assert main(["gen", "blob", "--seed", seed, "--out", str(path)]) == 0
        assert paths[0].read_bytes() != paths[1].read_bytes() == paths[2].read_bytes()


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
            # numpy used to reject the word without naming center
            ("center=0.1,a", "center must be finite"),
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

    @pytest.mark.parametrize(
        "argv,message",
        [
            # numpy used to reject these without naming dim or seed
            (["gen", "ball", "--dim", "-1"], "dim must be 1, 2, or 3, got -1"),
            (["gen", "ball", "--seed", "-1"], "seed must be >= 0, got -1"),
            (["verify", "--seed", "-1"], "seed must be >= 0, got -1"),
        ],
    )
    def test_negative_dim_or_seed_names_the_flag(self, tmp_path, capsys, argv, message):
        out = tmp_path / "x.vxg"
        extra = ["--out", str(out)] if argv[0] == "gen" else []
        assert main(argv + extra) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,message",
        [
            # the library's check names the flag, where argparse used to
            # print "invalid int value"
            (["gen", "ball", "--dim", "x"], "dim must be an integer, got x"),
            (["gen", "ball", "--seed", "x"], "seed must be an integer, got x"),
            (["gen", "ball", "--spacing", "x"], "spacing must be finite and positive, got x"),
            (["sweep", "--seed", "x"], "seed must be an integer, got x"),
            (["sweep", "--samples", "2.5"], "samples must be an integer, got 2.5"),
            (["sweep", "--dim", "x"], "dim must be an integer, got x"),
            (["verify", "--seed", "x"], "seed must be an integer, got x"),
        ],
    )
    def test_bad_flag_value_names_the_flag(self, tmp_path, capsys, argv, message):
        extra = {"gen": ["--out", str(tmp_path / "x.vxg")], "sweep": ["--out-dir", str(tmp_path)]}
        assert main(argv + extra.get(argv[0], [])) == 2
        err = capsys.readouterr().err
        assert err.startswith("rieszvox: error: ") and message in err
        assert list(tmp_path.iterdir()) == []


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
        assert err == "rieszvox: error: levels must be nonempty, finite and ascending, got 0.2,x\n"
        assert not (tmp_path / "sweep.csv").exists()

    def test_nan_level_is_an_error(self, tmp_path, capsys):
        # a NaN level used to write an unperturbed record with level=nan
        rc = main(["sweep", "--levels", "nan", "--samples", "1", "--out-dir", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("rieszvox: error: levels must be ")
        assert not (tmp_path / "sweep.csv").exists()

    def test_integral_float_samples(self, tmp_path):
        # argparse used to reject --samples 2.0, while samples = 2.0 in a
        # config file ran
        i = self.ARGS.index("--samples") + 1
        assert self.ARGS[i] == "2"
        for samples in ("2", "2.0"):
            argv = self.ARGS[:i] + [samples] + self.ARGS[i + 1 :]
            assert main(argv + ["--out-dir", str(tmp_path / samples)]) == 0

        def stripped(samples):  # the records without runtime_ms
            lines = (tmp_path / samples / "sweep.csv").read_text().splitlines()
            return [line.rsplit(",", 1)[0] for line in lines]

        assert len(stripped("2")) == 1 + 2 * 2
        assert stripped("2.0") == stripped("2")

    def test_bad_config_value_names_the_field(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("family = skew\nsamples = two\n")
        rc = main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "rieszvox: error: samples must be an integer, got two\n"
        assert not (tmp_path / "sweep.csv").exists()

    def test_unknown_config_key_exits(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("family = skew\nsample = 2\n")
        rc = main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("rieszvox: error: unknown config key 'sample'")
        assert not (tmp_path / "sweep.csv").exists()

    def test_repeated_config_key_exits(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("family = skew\nseed = 1\nseed = 2\n")
        rc = main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == "rieszvox: error: config key 'seed' given twice\n"
        assert not (tmp_path / "sweep.csv").exists()


# the shared flags each subcommand reads; every other (subcommand, flag)
# pair, and any of them before the subcommand, is argparse's usage error
SHARED = ("--spacing", "--seed", "--out-dir", "--config")
READS = {
    "gen": ("--spacing", "--seed"),
    "symmetrize": (),
    "deficit": (),
    "fit": (),
    "sweep": SHARED,
    "verify": ("--seed",),
}
READ = [(c, f) for c, flags in READS.items() for f in flags]
UNREAD = [(c, f) for c, flags in READS.items() for f in SHARED if f not in flags]


class TestFlagPlacement:
    @pytest.fixture
    def setup(self, tmp_path, monkeypatch):
        """Each subcommand's quick argv and each shared flag's value, run in
        tmp_path, so a sweep without --out-dir writes there."""
        monkeypatch.chdir(tmp_path)
        src = str(_gen(tmp_path, "src.vxg"))
        (tmp_path / "s.cfg").write_text("family = skew\n")
        commands = {
            "gen": ["gen", "ball", "--param", "radius=0.4", "--out", "g.vxg"],
            "symmetrize": ["symmetrize", src, "--op", "star", "--out", "s.vxg"],
            "deficit": ["deficit", src, src, src],
            "fit": ["fit", src, src, src],
            "sweep": ["sweep", "--levels", "0.0", "--samples", "1", "--spacing", "0.25"],
            "verify": ["verify"],
        }
        values = {"--spacing": "0.125", "--seed": "1", "--out-dir": "D", "--config": "s.cfg"}
        return commands, values

    def test_matrix_covers_every_pair(self):
        assert (len(READ), len(UNREAD)) == (7, 17)

    @pytest.mark.parametrize("command,flag", UNREAD)
    def test_unread_flag_exits_2(self, tmp_path, capsys, setup, command, flag):
        commands, values = setup
        files = sorted(tmp_path.rglob("*"))
        with pytest.raises(SystemExit) as exc:
            main(commands[command] + [flag, values[flag]])
        assert exc.value.code == 2
        assert f"error: unrecognized arguments: {flag}" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == files

    @pytest.mark.parametrize("flag", SHARED)
    def test_flag_before_subcommand_exits_2(self, tmp_path, capsys, setup, flag):
        commands, values = setup
        files = sorted(tmp_path.rglob("*"))
        with pytest.raises(SystemExit) as exc:
            main([flag, values[flag]] + commands["sweep"])
        assert exc.value.code == 2
        assert "usage: rieszvox" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == files

    @pytest.mark.parametrize("command,flag", READ)
    def test_read_flag_works(self, tmp_path, setup, command, flag):
        commands, values = setup
        assert main(commands[command] + [flag, values[flag]]) == 0
        if command == "sweep":
            out = tmp_path / ("D" if flag == "--out-dir" else "")
            assert (out / "sweep.csv").exists()


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


# the README's commands that run here too; sweep and verify only parse
RUN = ("gen", "symmetrize", "deficit", "fit")


def test_readme_commands_parse(tmp_path, monkeypatch):
    """Every README command parses, and the quick ones run in order in an
    empty directory with exit code 0, since argparse no longer checks
    values."""
    monkeypatch.chdir(tmp_path)
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    lines = [line for block in blocks for line in block.splitlines()]
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("rieszvox ")]
    assert len(commands) >= 10
    assert sum(argv[0] in RUN for argv in commands) == 7
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: rieszvox {shlex.join(argv)}")
        if argv[0] in RUN and main(argv) != 0:
            pytest.fail(f"README command fails: rieszvox {shlex.join(argv)}")


class TestVerify:
    def test_fast_suite_passes(self, capsys):
        assert main(["verify", "--suite", "fast"]) == 0
        text = capsys.readouterr().out
        assert "ok" in text

    def test_integral_float_seed(self, capsys):
        # argparse used to reject --seed 1.0
        lines = {}
        for seed in ("1", "1.0"):
            assert main(["verify", "--seed", seed]) == 0
            lines[seed] = capsys.readouterr().out.splitlines()
        assert len(lines["1"]) > 1
        assert lines["1.0"] == lines["1"]


@pytest.mark.parametrize(
    "command,dest,table",
    [
        # symmetrize --op: TestSymmetrize.test_op_choices_are_the_library_table
        ("gen", "kind", grid.KINDS),
        ("sweep", "family", sweep.FAMILIES),
        ("verify", "suite", verify.SUITES),
    ],
)
def test_choices_are_the_library_tables(command, dest, table):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    action = next(a for a in sub.choices[command]._actions if a.dest == dest)
    assert tuple(action.choices) == table
