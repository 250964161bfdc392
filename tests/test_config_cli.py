import copy
import csv
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from memsurf import (
    ChartSpanFailureError,
    ConfigError,
    IsotropicModel,
    MemsurfError,
    MinimizeReport,
    Sphere,
    make_initial_map,
    parse_config,
    parse_config_file,
)
import memsurf.cli as cli_module
import memsurf.config as config_module
import memsurf.minimizer as minimizer_module
from memsurf.cli import main


CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

MINIMAL_PLANE = """
surface: {kind: plane}
domain: {kind: unit_square, resolution: 0.125}
initial_map: {kind: identity}
diagnostics: {injectivity: true, degree_points: 10, residual_fields: 6}
output_dir: "%s"
seed: 42
"""

SMALL_CAP = """
surface: {kind: sphere, radius: 1.0}
domain: {kind: disk, resolution: 0.1, radius: 1.0}
initial_map: {kind: stereographic_cap, latitude: 1.0471975511965976}
diagnostics: {injectivity: true, degree_points: 10, residual_fields: 6}
output_dir: "%s"
seed: 42
"""

SMALL_VERIFY = """
output_dir: "%s"
seed: 42
"""


def _obj_records(path):
    """The v records (n, 3) and the f records (m, 3) of an OBJ file, as written."""
    rows = [line.split() for line in path.read_text().splitlines()]
    return (
        np.array([r[1:] for r in rows if r[0] == "v"], dtype=float),
        np.array([r[1:] for r in rows if r[0] == "f"], dtype=int),
    )


def write_config(tmp_path, template, name="run.yaml"):
    out = tmp_path / "out"
    cfg = tmp_path / name
    cfg.write_text(template % out)
    return cfg, out


class TestParsing:
    def test_defaults_fill_in(self):
        cfg = parse_config("{}")
        assert cfg.data["surface"]["kind"] == "plane"
        assert cfg.data["seed"] == 42

    def test_roundtrip(self):
        text = """
surface: {kind: sphere, radius: 2.0}
model:
  ogden_terms: [{b: 1.0, gamma: 3.0}]
  b: 1.0
  theta: {c: 1.5, q: 2.0, r: 4.0}
domain: {kind: disk, resolution: 0.2}
initial_map: {kind: stereographic_cap, latitude: 1.0}
seed: 7
"""
        first = parse_config(text)
        second = parse_config(first.serialize())
        assert first.data == second.data
        assert first.config_hash == second.config_hash

    def test_config_hash_serializes_once(self, monkeypatch):
        cfg = parse_config("seed: 3")
        calls = []
        serialize = cfg.serialize
        monkeypatch.setattr(cfg, "serialize", lambda: calls.append(1) or serialize())
        assert cfg.config_hash == cfg.config_hash == parse_config("seed: 3").config_hash
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "integer, real",
        [
            ("{b: 2}", "{b: 2.0}"),
            ("{theta: {c: 2}}", "{theta: {c: 2.0}}"),
            ("{theta: {q: 3}}", "{theta: {q: 3.0}}"),
            ("{theta: {r: 5}}", "{theta: {r: 5.0}}"),
            ("{ogden_terms: [{b: 2, gamma: 3.0}]}", "{ogden_terms: [{b: 2.0, gamma: 3.0}]}"),
            ("{ogden_terms: [{b: 1.0, gamma: 4}]}", "{ogden_terms: [{b: 1.0, gamma: 4.0}]}"),
        ],
    )
    def test_integer_and_float_material_hash_alike(self, integer, real):
        a, b = parse_config(f"model: {integer}"), parse_config(f"model: {real}")
        assert a.data == b.data and a.serialize() == b.serialize()
        assert a.config_hash == b.config_hash

    def test_shipped_config_hashes(self):
        hashes = {
            path.stem: parse_config_file(path).config_hash
            for path in CONFIGS.glob("*.yaml")
        }
        assert hashes == {
            "sphere_cap": "fc327e66b2fbe8cd",
            "plane_affine": "4be04914b386959a",
            "torus_band": "0e3ae9140dda7f64",
            "verify_default": "20c531b2d564601e",
        }

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown configuration key"):
            parse_config("modle: {}")

    def test_unknown_surface_parameter(self):
        with pytest.raises(ConfigError):
            parse_config("surface: {kind: sphere, radios: 2.0}")

    def test_invalid_model_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(
                "model: {ogden_terms: [{b: -1.0, gamma: 3.0}], b: 1.0,"
                " theta: {c: 1.5, q: 2.0, r: 4.0}}"
            )
        # A block where a mapping belongs is malformed, not a crash.
        with pytest.raises(ConfigError, match="malformed"):
            parse_config("model: {theta: 3}")

    def test_yaml_error_is_line_anchored(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config("model:\n  ogden_terms: [\n")

    def test_default_domain_block_passes_its_check(self):
        # Parsing skips the default domain block's check, which would import
        # mesh, so the block must pass it.
        config = parse_config("{}")
        assert config._kind_params("domain") == ("unit_square", {"resolution": 0.125})
        assert config.mesh().num_triangles > 0

    def test_bad_resolution(self):
        with pytest.raises(ConfigError, match="resolution"):
            parse_config("domain: {kind: disk, resolution: -0.5}")

    @pytest.mark.parametrize(
        "text",
        [
            "seed: true",
            "seed: -1",
            "diagnostics: {degree_points: true}",
            "diagnostics: {residual_fields: true}",
            "domain: {kind: unit_square, resolution: true}",
            "minimize: {grad_tol: true}",
            # PyYAML reads an exponent without a decimal point as a string.
            "minimize: {grad_tol: 5e-2}",
            # Kind blocks: booleans (nested ones too), wrong types, bad
            # values and blocks that are not a {kind: ...} mapping.
            "surface: {kind: sphere, radius: true}\ninitial_map: {kind: stereographic_cap}",
            "surface: plane",
            "surface: {kind: [plane]}",
            "domain: {kind: annulus, resolution: 0.2, inner_radius: 2.0, outer_radius: 1.0}",
            "domain: {kind: disk, resolution: 0.2, radius: -1.0}",
            "domain: {kind: disk, resolution: 0.2, radius: 'a'}",
            "surface: {kind: sphere}\ninitial_map: {kind: stereographic_cap, latitude: true}",
            "surface: {kind: sphere}\ninitial_map: {kind: stereographic_cap, latitude: 'abc'}",
            "initial_map: {kind: affine, matrix: [[true, 0.0], [0.0, 1.0]]}",
            "initial_map: {kind: affine, matrix: 'x'}",
            "surface: {kind: torus}\ninitial_map: {kind: torus_band, theta_range: 5}",
            "surface: {kind: torus}\ninitial_map: {kind: torus_band, theta_range: [0.0]}",
        ],
    )
    def test_booleans_and_fractional_counts_exit_2(self, tmp_path, text):
        # YAML booleans are Python ints; none may stand in for a
        # number, and neither may a string.  Parsing does not build the
        # mesh, so only a domain block may pass it and fail in mesh().
        with pytest.raises(ConfigError):
            config = parse_config(text)
            assert text.startswith("domain:")
            config.mesh()
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"{text}\noutput_dir: \"{tmp_path / 'out'}\"\n")
        assert main(["residual", str(cfg)]) == 2

    def test_parsed_configs_do_not_share_defaults(self, monkeypatch):
        # Parse against a private copy of the defaults, so that a shared
        # sub-dict cannot leak an edit into other tests.
        defaults = copy.deepcopy(config_module.DEFAULT_CONFIG)
        monkeypatch.setattr(config_module, "DEFAULT_CONFIG", copy.deepcopy(defaults))
        parse_config("{}").data["minimize"]["grad_tol"] = 7.0
        parse_config("model: {b: 1.0}").data["model"]["ogden_terms"][0]["gamma"] = 9.0
        fresh = parse_config("{}")
        assert fresh.grad_tol() is None
        assert fresh.model() == IsotropicModel()
        assert config_module.DEFAULT_CONFIG == defaults

    @pytest.mark.parametrize("block", ["minimize", "diagnostics"])
    @pytest.mark.parametrize("value", ["5", "[1, 2]", "'x'", ""])
    @pytest.mark.parametrize("command", ["verify", "minimize"])
    def test_block_that_is_not_a_mapping_exit_2(self, tmp_path, capsys, block, value, command):
        # Under verify, exit 1 would mean a failed check.
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"{block}: {value}\noutput_dir: \"{tmp_path / 'out'}\"\n")
        assert main([command, str(cfg)]) == 2
        assert f"{block} must be a mapping" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["", "''", "[a, b]", "5", "true"])
    def test_output_dir_must_be_a_non_empty_string(self, tmp_path, monkeypatch, capsys, value):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"output_dir: {value}\n")
        assert main(["verify", str(cfg)]) == 2
        assert "output_dir must be a non-empty string" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("command", ["verify", "minimize"])
    @pytest.mark.parametrize("target", ["afile", "afile/sub"])
    def test_output_dir_that_cannot_be_made_exit_2(
        self, tmp_path, monkeypatch, capsys, command, target
    ):
        # Under verify, exit 1 would mean a failed check.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("")
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"output_dir: {target}\n")
        assert main([command, str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: output_dir {target!r}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "args, template, first",
        [
            (["verify"], SMALL_VERIFY, "verify_summary.csv"),
            (["minimize"], MINIMAL_PLANE, "energy_history.csv"),
            (["degree", "--point", "0.5", "0.5", "0.0"], MINIMAL_PLANE, "initial_degree.csv"),
            (["residual"], MINIMAL_PLANE, "initial_residuals.csv"),
        ],
        ids=["verify", "minimize", "degree", "residual"],
    )
    def test_output_that_cannot_be_written_exit_2(self, tmp_path, capsys, args, template, first):
        # A directory squats on the command's first output file.  Under
        # verify, exit 1 would mean a failed check.
        cfg, out = write_config(tmp_path, template)
        (out / first).mkdir(parents=True)
        assert main([args[0], str(cfg), *args[1:]]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: output_dir {str(out)!r}: {out / first}: Is a directory\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["verify", "minimize"])
    @pytest.mark.parametrize("value", ["{rotation_samples: 1000}", "{}", "5"])
    def test_verify_block_is_unknown(self, tmp_path, capsys, command, value):
        # The battery's sample counts and perturbation size are constants.
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"verify: {value}\noutput_dir: \"{tmp_path / 'out'}\"\n")
        assert main([command, str(cfg)]) == 2
        assert "unknown configuration key 'verify'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "block, message",
        [
            ("{ogden_terms: [{b: 1.0, gamma: 3.0, gama: 2.0}]}",
             "unknown configuration key model.ogden_terms[0].'gama'"),
            ("{b: true}", "model.b must be a number, got True"),
            ("{theta: {c: true}}", "model.theta.c must be a number, got True"),
            ("{ogden_terms: [{b: true, gamma: 3.0}]}",
             "model.ogden_terms[0].b must be a number, got True"),
            ("{b: '2.0'}", "model.b must be a number, got '2.0'"),
            ("{theta: {q: '3'}}", "model.theta.q must be a number, got '3'"),
            ("{b: .nan}", "model: shear coefficient b must be finite and >= 0"),
            ("{ogden_terms: [{b: .inf, gamma: 3.0}]}",
             "model: ogden coefficients must be finite and > 0"),
            ("{ogden_terms: [{b: 1.0}]}",
             "model.ogden_terms entries must be mappings with keys ['b', 'gamma']"),
            ("{ogden_terms: [5]}", "model.ogden_terms entries must be mappings"),
            ("{ogden_terms: {b: 1.0, gamma: 3.0}}", "model: malformed block"),
            ("{b: 1" + "0" * 400 + "}", "model: malformed block (int too large"),
            ("5", "model must be a mapping, got 5"),
        ],
    )
    def test_malformed_model_block_exit_2(self, tmp_path, capsys, block, message):
        with pytest.raises(ConfigError) as err:
            parse_config(f"model: {block}")
        assert message in str(err.value)
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"model: {block}\noutput_dir: \"{tmp_path / 'out'}\"\n")
        assert main(["verify", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_model_label_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"model: {{label: default}}\noutput_dir: \"{tmp_path / 'out'}\"\n")
        assert main(["verify", str(cfg)]) == 2
        assert "unknown configuration key model.'label'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "minimize"])
    def test_model_below_battery_perturbation_exit_2(self, tmp_path, capsys, command):
        # theta.r = 20 gives 1/(2K) = 0.0089, below the battery's delta 0.01.
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"model: {{theta: {{r: 20}}}}\noutput_dir: \"{tmp_path / 'out'}\"\n")
        assert main([command, str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "model: 1/(2K) = 0.00891376 must exceed the perturbation size 0.01" in err

    # The line-search knobs and the iteration cap (minimizer.MAX_ITER) are constants.
    @pytest.mark.parametrize(
        "key", ["armijo_c", "backtrack_ratio", "initial_step", "j_floor", "max_iter"]
    )
    def test_removed_line_search_keys_are_unknown(self, tmp_path, capsys, key):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"minimize: {{{key}: 1.0e-4}}\noutput_dir: \"{tmp_path / 'out'}\"\n")
        assert main(["minimize", str(cfg)]) == 2
        assert f"unknown configuration key minimize.{key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "path", sorted(CONFIGS.glob("*.yaml")), ids=lambda path: path.stem
    )
    def test_shipped_configs_parse(self, path):
        config = parse_config_file(path)
        assert config.grad_tol() is None  # each stops at the default tolerance
        assert config.output_dir == f"runs/{path.stem}"

    def test_string_number_error_names_key_and_spelling(self):
        with pytest.raises(ConfigError, match=r"minimize\.grad_tol .*5\.0e-2"):
            parse_config("minimize: {grad_tol: 5e-2}")
        assert parse_config("minimize: {grad_tol: 5.0e-2}").grad_tol() == 0.05

    def test_factories_reject_misspelt_keywords(self):
        # The config checks a kind block's keys against the builders' signatures.
        with pytest.raises(TypeError, match="latitud"):
            make_initial_map(Sphere(), "stereographic_cap", latitud=0.3)
        with pytest.raises(ConfigError, match="unknown domain parameter 'radiuss'"):
            parse_config("domain: {kind: disk, resolution: 0.2, radiuss: 3.0}")
        with pytest.raises(ConfigError, match="unknown initial_map parameter 'surface'"):
            parse_config("surface: {kind: sphere}\ninitial_map: {kind: stereographic_cap, surface: 1.0}")

    def test_map_surface_mismatch(self):
        with pytest.raises(ConfigError):
            parse_config(
                "surface: {kind: sphere}\n"
                "initial_map: {kind: identity}\n"
            )

    def test_surface_and_model_constructors(self):
        cfg = parse_config("surface: {kind: torus, major_radius: 3.0, minor_radius: 1.0}\ninitial_map: {kind: torus_band}")
        surf = cfg.surface()
        assert surf.kind == "torus"
        model = cfg.model()
        assert model.growth_exponent == 3.0

    def test_initial_map_validation(self):
        with pytest.raises(ConfigError, match="latitude"):
            parse_config(
                "surface: {kind: sphere}\n"
                "initial_map: {kind: stereographic_cap, latitude: 4.0}\n"
            )
        # 0 < True < pi holds, so a library boolean would pass as a 1 rad cap.
        with pytest.raises(ConfigError, match="latitude"):
            make_initial_map(Sphere(1.0), "stereographic_cap", latitude=True)
        with pytest.raises(ConfigError, match="2x2"):
            parse_config(
                "initial_map: {kind: affine, matrix: [[1.0, 0.0, 0.0]]}\n"
            )
        with pytest.raises(ConfigError, match="increasing"):
            parse_config(
                "surface: {kind: torus}\n"
                "initial_map: {kind: torus_band, theta_range: [1.0, 0.0]}\n"
            )


class TestDispatch:
    @pytest.mark.parametrize("argv", [[], ["frobnicate"]], ids=["none", "unknown"])
    def test_missing_or_unknown_command_exit_2_with_usage(self, capsys, argv):
        # The usage line lists the commands in the order they are registered.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[0] == "usage: memsurf [-h] {verify,minimize,residual,degree} ..."


class TestVerifyCommand:
    def test_default_model_passes(self, tmp_path, capsys):
        cfg, out = write_config(tmp_path, SMALL_VERIFY)
        code = main(["verify", str(cfg)])
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.count("pass") == 8
        summary = (out / "verify_summary.csv").read_text().splitlines()
        assert summary[0].startswith("# config_hash=")
        rows = list(csv.reader(io.StringIO("\n".join(summary[1:]))))
        assert rows[0] == ["check_name", "samples", "worst_violation", "passed"]
        assert len(rows) == 9
        assert all(r[3] == "true" for r in rows[1:])
        assert (out / "verify_objectivity.txt").exists()
        assert (out / "verify_rank_one_failure.txt").exists()

    def test_bad_model_fails(self, tmp_path):
        text = (
            "model:\n"
            "  ogden_terms: [{b: 1.0, gamma: 3.0}]\n"
            "  b: 1.0\n"
            "  theta: {c: 1.5, q: 2.0, r: 2.0}\n"
            + SMALL_VERIFY
        )
        cfg, out = write_config(tmp_path, text)
        assert main(["verify", str(cfg)]) == 1
        summary = (out / "verify_summary.csv").read_text()
        assert "coercivity_and_blowup" in summary
        assert "false" in summary

    def test_malformed_config_exit_2(self, tmp_path):
        cfg = tmp_path / "broken.yaml"
        cfg.write_text("model:\n  ogden_terms: [\n")
        assert main(["verify", str(cfg)]) == 2

    def test_misspelt_domain_key_exit_2(self, tmp_path, capsys):
        # verify builds no mesh, yet the domain block is checked.
        cfg, _ = write_config(
            tmp_path, "domain: {kind: disk, resolution: 0.2, radiuss: 3.0}\n" + SMALL_VERIFY
        )
        assert main(["verify", str(cfg)]) == 2
        assert "radiuss" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["verify", str(tmp_path / "nope.yaml")]) == 2

    @pytest.mark.parametrize("kind", ["ellipsoid", "graph"])
    def test_unknown_surface_kind_exit_2(self, tmp_path, capsys, kind):
        # Surface families this package does not define are unknown kinds.
        cfg, _ = write_config(tmp_path, f"surface: {{kind: {kind}}}\n" + SMALL_VERIFY)
        assert main(["verify", str(cfg)]) == 2
        assert "surface.kind must be one of ['plane', 'sphere', 'torus']" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["minimize", "verify"])
    @pytest.mark.parametrize(
        "kind, key, value",
        [
            ("plane", "orientation_sign", -1),
            ("sphere", "orientation_sign", -1),
            ("torus", "orientation_sign", -1),
            ("plane", "normal_dir", [0.3, -1.2, 0.7]),
            ("plane", "offset", 0.45),
            ("plane", "origin", [0.0, 0.0, 0.45]),
        ],
    )
    def test_surface_placement_and_orientation_keys_exit_2(self, tmp_path, capsys, command, kind, key, value):
        # Every surface has one frame and one normal field: the plane is
        # z = 0 with normal +e3, the sphere and the torus face outward.
        cfg, out = write_config(tmp_path, f"surface: {{kind: {kind}, {key}: {value}}}\n" + SMALL_VERIFY)
        assert main([command, str(cfg)]) == 2
        assert not out.exists()
        assert f"unknown surface parameter '{key}' for kind '{kind}'" in capsys.readouterr().err


def run_script(script):
    """Run a Python script in a fresh process on this checkout; its last stdout line, as JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


# The cli names perfbench's launch.py and tracing.py read and replace right
# after ``import memsurf.cli``, each with the module that defines it.
HARNESS_NAMES = {
    "parse_config_file": "memsurf.config",
    "minimize": "memsurf.minimizer",
    "run_all_checks": "memsurf.verification",
    "injectivity_check": "memsurf.diagnostics",
    "brouwer_degree": "memsurf.diagnostics",
    "first_variation_residual": "memsurf.diagnostics",
    "save_mesh": "memsurf.mesh",
}


class TestCommandImports:
    """A command imports only the modules it runs, since a process compiles
    every module it imports; the names a harness replaces still resolve."""

    @pytest.mark.parametrize(
        "command, template, unloaded",
        [
            ("verify", SMALL_VERIFY, ["diagnostics", "discretization", "mesh", "minimizer", "stiffness"]),
            ("minimize", MINIMAL_PLANE, ["verification"]),
        ],
        ids=["verify", "minimize"],
    )
    def test_command_leaves_other_modules_unloaded(self, tmp_path, command, template, unloaded):
        cfg, _ = write_config(tmp_path, template)
        code, loaded = run_script(
            "import json, sys\n"
            "from memsurf.cli import main\n"
            f"code = main([{command!r}, {str(cfg)!r}])\n"
            "print(json.dumps([code, sorted(sys.modules)]))\n"
        )
        assert code == 0
        assert "memsurf.cli" in loaded
        assert not {f"memsurf.{name}" for name in unloaded} & set(loaded)

    def test_harness_wrappers_are_what_the_commands_call(self, tmp_path):
        # As launch.py and tracing.py do: read each name on a fresh import,
        # then replace it with a wrapper before main runs.
        minimize_cfg, _ = write_config(tmp_path, MINIMAL_PLANE, "minimize.yaml")
        verify_cfg, _ = write_config(tmp_path, SMALL_VERIFY, "verify.yaml")
        modules, codes, calls = run_script(
            "import json\n"
            "import memsurf.cli as cli\n"
            f"names = {list(HARNESS_NAMES)!r}\n"
            "modules = {name: getattr(cli, name).__module__ for name in names}\n"
            "calls = dict.fromkeys(names, 0)\n"
            "def wrap(name, fn):\n"
            "    def wrapper(*args, **kwargs):\n"
            "        calls[name] += 1\n"
            "        return fn(*args, **kwargs)\n"
            "    return wrapper\n"
            "for name in names:\n"
            "    setattr(cli, name, wrap(name, getattr(cli, name)))\n"
            f"codes = [cli.main(['minimize', {str(minimize_cfg)!r}]),"
            f" cli.main(['verify', {str(verify_cfg)!r}])]\n"
            "print(json.dumps([modules, codes, calls]))\n"
        )
        assert modules == HARNESS_NAMES
        assert codes == [0, 0]
        # MINIMAL_PLANE asks for 10 degree targets; minimize writes two meshes.
        assert calls == {
            "parse_config_file": 2,
            "minimize": 1,
            "run_all_checks": 1,
            "injectivity_check": 1,
            "brouwer_degree": 10,
            "first_variation_residual": 1,
            "save_mesh": 2,
        }

    def test_replacement_set_before_any_read_is_not_imported_over(self, tmp_path):
        # A stub battery set on a fresh cli runs in place of the real one,
        # whose module is then never imported.
        cfg, out = write_config(tmp_path, SMALL_VERIFY)
        code, loaded = run_script(
            "import json, sys\n"
            "import memsurf.cli as cli\n"
            "cli.run_all_checks = lambda model, seed: []\n"
            f"code = cli.main(['verify', {str(cfg)!r}])\n"
            "print(json.dumps([code, sorted(sys.modules)]))\n"
        )
        assert code == 0
        assert "memsurf.verification" not in loaded
        assert (out / "verify_summary.csv").read_text().splitlines()[1:] == [
            "check_name,samples,worst_violation,passed"
        ]

    def test_other_names_are_the_defining_modules_objects(self):
        # cli resolves every name through the package's table.
        same = run_script(
            "import json\n"
            "import memsurf.cli as cli\n"
            "names = [cli.initialize, cli.interpolate, cli.oriented_area_ratios]\n"
            "import memsurf.discretization as discretization\n"
            "import memsurf.minimizer as minimizer\n"
            "homes = [minimizer.initialize, discretization.interpolate,"
            " discretization.oriented_area_ratios]\n"
            "print(json.dumps([a is b for a, b in zip(names, homes)]))\n"
        )
        assert same == [True, True, True]

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(
            AttributeError, match="module 'memsurf.cli' has no attribute 'no_such_command'"
        ):
            cli_module.no_such_command
        import memsurf

        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            memsurf.no_such_name
        assert set(memsurf.__all__) <= set(dir(memsurf))


class TestMinimizeCommand:
    @pytest.mark.parametrize(
        "text, key",
        [
            ("surface: {kind: sphere, radius: .nan}\ninitial_map: {kind: stereographic_cap}", "radius"),
            ("surface: {kind: sphere, radius: .inf}\ninitial_map: {kind: stereographic_cap}", "radius"),
            ("surface: {kind: torus, major_radius: .inf}\ninitial_map: {kind: torus_band}", "major_radius"),
            ("surface: {kind: torus, minor_radius: .nan}\ninitial_map: {kind: torus_band}", "minor_radius"),
            ("initial_map: {kind: affine, matrix: [[1.0, 0.0], [0.0, .nan]]}", "matrix"),
            ("surface: {kind: torus}\ninitial_map: {kind: torus_band, theta_range: [0.0, .inf]}", "theta_range"),
            ("minimize: {grad_tol: .nan}", "grad_tol"),
            ("minimize: {grad_tol: -1.0}", "grad_tol"),
            ("minimize: {grad_tol: .inf}", "grad_tol"),
            ("domain: {kind: unit_square, resolution: .nan}", "resolution"),
            ("domain: {kind: disk, resolution: 0.2, radius: .inf}", "radius"),
        ],
    )
    def test_non_finite_or_non_positive_value_exit_2(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "run.yaml"
        cfg.write_text(f"{text}\noutput_dir: \"{tmp_path / 'out'}\"\n")
        assert main(["minimize", str(cfg)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, extra, outputs",
        [
            ("minimize", [], ["degree.csv", "residuals.csv"]),
            ("verify", [], ["verify_summary.csv"]),
            ("degree", ["--point", "0.3", "0.2", "0.93"], ["initial_degree.csv"]),
            ("residual", [], ["initial_residuals.csv"]),
        ],
        ids=["minimize", "verify", "degree", "residual"],
    )
    def test_run_never_imports_numpy_ma(self, tmp_path, command, extra, outputs):
        # numpy.ma costs milliseconds and about a megabyte to import; some
        # NumPy calls (np.unique without a return_* flag on NumPy 2.4) pull
        # it in.  No subcommand may, a minimize run's diagnostics included.
        cfg, out = write_config(tmp_path, SMALL_CAP)
        script = (
            "import sys\n"
            "from memsurf.cli import main\n"
            f"code = main([{command!r}, {str(cfg)!r}, *{extra!r}])\n"
            "print(code, 'numpy.ma' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.split()[-2:] == ["0", "False"]
        assert all((out / name).exists() for name in outputs)

    def test_plane_identity_run(self, tmp_path, capsys):
        import time

        cfg, out = write_config(tmp_path, MINIMAL_PLANE)
        t0 = time.perf_counter()
        assert main(["minimize", str(cfg)]) == 0
        assert time.perf_counter() - t0 < 1.0
        text = capsys.readouterr().out
        assert "status: converged" in text
        history = (out / "energy_history.csv").read_text().splitlines()
        assert history[0].startswith("# config_hash=")
        assert history[1] == (
            "iteration,energy,grad_norm,min_J,step,"
            "backtracks,infeasible_trials,projection_failures"
        )
        pos, tri = _obj_records(out / "final_config.obj")
        assert pos.shape[1] == 3
        ref_pos, ref_tri = _obj_records(out / "reference_mesh.obj")
        assert np.all(ref_pos[:, 2] == 0.0)
        assert np.array_equal(tri, ref_tri)
        summary = (out / "summary.txt").read_text()
        assert "injective: true" in summary
        assert "degree_method_agreement: 10/10" in summary
        assert (out / "degree.csv").exists()
        assert (out / "residuals.csv").exists()

    def test_max_iter_exit_3(self, tmp_path, monkeypatch):
        text = """
surface: {kind: sphere, radius: 1.0}
domain: {kind: disk, resolution: 0.3}
initial_map: {kind: stereographic_cap, latitude: 1.0471975511965976}
diagnostics: {injectivity: false, degree_points: 0, residual_fields: 0}
output_dir: "%s"
"""
        monkeypatch.setattr(minimizer_module, "MAX_ITER", 2)
        cfg, out = write_config(tmp_path, text)
        assert main(["minimize", str(cfg)]) == 3
        summary = (out / "summary.txt").read_text()
        assert "status: max_iter" in summary
        assert "iterations: 2\n" in summary
        # The default tolerance the run stopped against, 1e-7 times the area.
        mesh = parse_config_file(cfg).mesh()
        assert f"grad_tol: {1e-7 * mesh.total_area!r}\n" in summary

    def test_counters_in_history_and_summary(self, tmp_path, monkeypatch):
        # A first step 16 times the model minimizer backtracks, once at the
        # J floor; the summary totals are the column sums of energy_history.csv.
        text = """
surface: {kind: sphere, radius: 1.0}
domain: {kind: disk, resolution: 0.3}
initial_map: {kind: stereographic_cap, latitude: 1.0471975511965976}
diagnostics: {injectivity: false, degree_points: 0, residual_fields: 0}
output_dir: "%s"
"""
        monkeypatch.setattr(minimizer_module, "MAX_ITER", 8)
        curvature_step = minimizer_module._curvature_step
        monkeypatch.setattr(
            minimizer_module, "_curvature_step", lambda *args: 16 * curvature_step(*args)
        )
        cfg, out = write_config(tmp_path, text)
        main(["minimize", str(cfg)])
        lines = (out / "energy_history.csv").read_text().splitlines()[1:]
        rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
        summary = dict(
            line.split(": ", 1)
            for line in (out / "summary.txt").read_text().splitlines()[1:]
        )
        totals = {}
        for key in ("backtracks", "infeasible_trials", "projection_failures"):
            assert rows[0][key] == "0"
            totals[key] = sum(int(row[key]) for row in rows)
            assert summary[key] == str(totals[key])
        assert 0 < totals["infeasible_trials"] <= totals["backtracks"]
        iterations = int(summary["iterations"])
        assert len(rows) == iterations + 1
        assert summary["trials"] == str(iterations + totals["backtracks"])

    def test_infeasible_start_exit_4(self, tmp_path):
        text = """
surface: {kind: plane}
domain: {kind: unit_square, resolution: 0.5}
initial_map: {kind: affine, matrix: [[0.0, 1.0], [1.0, 0.0]]}
output_dir: "%s"
"""
        cfg, _ = write_config(tmp_path, text)
        assert main(["minimize", str(cfg)]) == 4

    def test_line_search_stall_exit_5(self, tmp_path, capsys, monkeypatch):
        # A stalled report maps to exit 5 and the underflow message, and its
        # run writes its tables and summary but skips the diagnostics that
        # the config asks for.
        def stall(model, surface, mesh, positions, grad_tol=None):
            report = MinimizeReport(
                status="stalled",
                iterations=7,
                grad_tol=2.5e-7,
                energy_history=[3.0 - 0.1 * k for k in range(8)],
                grad_history=[1.5e-6] * 8,
                min_j_history=[1.0] * 8,
                step_history=[1.0] * 7,
                backtracks=[0] * 7,
                infeasible_trials=[0] * 7,
                projection_failures=[0] * 7,
            )
            return positions, report

        monkeypatch.setattr("memsurf.cli.minimize", stall)
        cfg, out = write_config(tmp_path, MINIMAL_PLANE)
        assert main(["minimize", str(cfg)]) == 5
        assert capsys.readouterr().err == (
            "error: line search underflowed at iteration 7 "
            "(|g_T| = 1.500e-06, tol = 2.500e-07)\n"
        )
        assert "status: stalled\n" in (out / "summary.txt").read_text()
        rows = (out / "energy_history.csv").read_text().splitlines()[2:]
        assert len(rows) == 7 + 1
        assert (out / "final_config.obj").exists()
        assert not (out / "degree.csv").exists()
        assert not (out / "residuals.csv").exists()

    def test_failing_line_search_exit_5(self, tmp_path, capsys, monkeypatch):
        # Every line search after the first two gives up, so iteration 2 and
        # its retry fail and the run stalls; it still writes its tables and
        # summary, but runs no diagnostics.
        text = """
surface: {kind: sphere, radius: 1.0}
domain: {kind: disk, resolution: 0.3}
initial_map: {kind: stereographic_cap, latitude: 1.0471975511965976}
output_dir: "%s"
"""
        line_search = minimizer_module._line_search
        calls = []

        def search(*args):
            calls.append(args)
            return line_search(*args) if len(calls) <= 2 else None

        monkeypatch.setattr(minimizer_module, "_line_search", search)
        cfg, out = write_config(tmp_path, text)
        assert main(["minimize", str(cfg)]) == 5
        assert re.fullmatch(
            r"error: line search underflowed at iteration 2 \(\|g_T\| = \S+, tol = \S+\)\n",
            capsys.readouterr().err,
        )
        assert len(calls) == 4
        summary = dict(
            line.split(": ", 1)
            for line in (out / "summary.txt").read_text().splitlines()[1:]
        )
        assert summary["status"] == "stalled"
        assert summary["iterations"] == "2"
        rows = (out / "energy_history.csv").read_text().splitlines()[2:]
        assert len(rows) == 2 + 1
        # The last accepted iterate, whose positions the failed searches started from.
        final = _obj_records(out / "final_config.obj")[0]
        assert np.array_equal(final, calls[-1][4])
        assert (out / "reference_mesh.obj").exists()
        assert not (out / "degree.csv").exists()
        assert not (out / "residuals.csv").exists()

    def test_coarse_chart_degree_names_target_and_element_exit_5(
        self, tmp_path, capsys, monkeypatch
    ):
        # The shipped cap pinned near the far pole on a coarse disk converges,
        # then its first degree target has a near element the chart misses.
        text = (CONFIGS / "sphere_cap.yaml").read_text()
        text = text.replace("latitude: 1.0471975511965976", "latitude: 2.8")
        text = text.replace("resolution: 0.05", "resolution: 0.2")
        text = text.replace("output_dir: runs/sphere_cap", 'output_dir: "%s"')
        cfg, out = write_config(tmp_path, text)
        raised = []
        run_diagnostics = cli_module._run_diagnostics

        def spy(*args, **kwargs):
            try:
                return run_diagnostics(*args, **kwargs)
            except MemsurfError as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(cli_module, "_run_diagnostics", spy)
        assert main(["minimize", str(cfg)]) == 5
        err = capsys.readouterr().err
        assert [type(exc) for exc in raised] == [ChartSpanFailureError]
        assert err == f"error: {raised[0]}\n"
        assert re.match(
            r"error: degree target 0 at \[\S+, \S+, \S+\]: near element \d+ reaches past "
            r"the sphere chart radius 0\.9 \(its vertices lie at chords \S+ to \S+ from "
            r"the target point\); .* use a smaller domain\.resolution$",
            err,
        )
        assert (out / "energy_history.csv").exists()

    def test_diagnostics_use_the_minimized_model(self, tmp_path, monkeypatch):
        # The residual is taken with the model object the minimizer ran with.
        models = []
        for name in ("minimize", "first_variation_residual"):
            wrapped = getattr(cli_module, name)

            def spy(model, *args, wrapped=wrapped, **kwargs):
                models.append(model)
                return wrapped(model, *args, **kwargs)

            monkeypatch.setattr(cli_module, name, spy)
        cfg, out = write_config(tmp_path, MINIMAL_PLANE)
        assert main(["minimize", str(cfg)]) == 0
        assert len(models) == 2 and models[0] is models[1]
        assert (out / "residuals.csv").exists()

    def test_determinism_bitwise(self, tmp_path):
        cfg, out = write_config(tmp_path, MINIMAL_PLANE)
        assert main(["minimize", str(cfg)]) == 0
        first = {
            name: (out / name).read_bytes()
            for name in ("energy_history.csv", "degree.csv", "residuals.csv")
        }
        assert main(["minimize", str(cfg)]) == 0
        for name, blob in first.items():
            assert (out / name).read_bytes() == blob


class TestDegreeResidualCommands:
    def test_degree_point(self, tmp_path, capsys):
        text = """
surface: {kind: plane}
domain: {kind: annulus, resolution: 0.1, inner_radius: 0.5, outer_radius: 1.0}
initial_map: {kind: affine, matrix: [[0.0, 1.0], [1.0, 0.0]]}
output_dir: "%s"
seed: 3
"""
        cfg, out = write_config(tmp_path, text)
        code = main(["degree", str(cfg), "--point", "0.7", "0.05", "0.0"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "degree: -1" in printed
        assert (out / "initial_degree.csv").exists()

    def test_degree_at_image_vertex(self, tmp_path, capsys):
        # README's example: (0.6, 0.45) is the image of the grid vertex
        # (0.5, 0.5), on the image edges of the six elements around it.
        text = (CONFIGS / "plane_affine.yaml").read_text()
        text = text.replace("output_dir: runs/plane_affine", 'output_dir: "%s"')
        cfg, out = write_config(tmp_path, text)
        assert main(["degree", str(cfg), "--point", "0.6", "0.45", "0.0"]) == 0
        assert "degree: 1" in capsys.readouterr().out
        assert (out / "initial_degree.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_degree_nonfinite_point_exit_2(self, tmp_path, capsys, value):
        cfg, out = write_config(tmp_path, MINIMAL_PLANE)
        with pytest.raises(SystemExit) as exc:
            main(["degree", str(cfg), "--point", value, "0", "0"])
        assert exc.value.code == 2
        assert f"--point must be finite, got {value} 0.0 0.0" in capsys.readouterr().err
        assert not (out / "initial_degree.csv").exists()

    @pytest.mark.parametrize("value,shown", [("-inf", "-inf"), ("-nan", "nan")])
    def test_degree_negative_nonfinite_point_exit_2(self, tmp_path, capsys, value, shown):
        # argparse reads "-inf" as an option flag unless it is kept a value.
        cfg, out = write_config(tmp_path, MINIMAL_PLANE)
        with pytest.raises(SystemExit) as exc:
            main(["degree", str(cfg), "--point", "0", value, "0"])
        assert exc.value.code == 2
        assert f"--point must be finite, got 0.0 {shown} 0.0" in capsys.readouterr().err
        assert not (out / "initial_degree.csv").exists()

    def test_degree_point_at_sphere_center_exit_2(self, tmp_path, capsys):
        text = """
surface: {kind: sphere, radius: 1.0}
domain: {kind: disk, resolution: 0.25}
initial_map: {kind: stereographic_cap, latitude: 1.0471975511965976}
output_dir: "%s"
"""
        cfg, out = write_config(tmp_path, text)
        assert main(["degree", str(cfg), "--point", "0", "0", "0"]) == 2
        err = capsys.readouterr().err
        assert "--point 0.0 0.0 0.0 has no closest point on the surface" in err
        assert "sphere center" in err
        assert not (out / "initial_degree.csv").exists()

    def test_degree_point_on_torus_axis_exit_2(self, tmp_path, capsys):
        text = """
surface: {kind: torus, major_radius: 2.0, minor_radius: 0.5}
domain: {kind: unit_square, resolution: 0.25}
initial_map: {kind: torus_band}
output_dir: "%s"
"""
        cfg, out = write_config(tmp_path, text)
        assert main(["degree", str(cfg), "--point", "0", "0", "0.3"]) == 2
        err = capsys.readouterr().err
        assert "--point 0.0 0.0 0.3 has no closest point on the surface" in err
        assert not (out / "initial_degree.csv").exists()

    def test_degree_point_on_boundary_image_exit_5(self, tmp_path, capsys):
        # The corner of the unit square lies on the boundary image.
        cfg, out = write_config(tmp_path, MINIMAL_PLANE)
        assert main(["degree", str(cfg), "--point", "0", "0", "0"]) == 5
        err = capsys.readouterr().err
        assert (
            "error: target point is 0.000e+00 from the boundary image in its chart "
            "(margin 1.0e-06)" in err
        )
        assert not (out / "initial_degree.csv").exists()

    def _shipped(self, tmp_path, name):
        text = (CONFIGS / f"{name}.yaml").read_text()
        return write_config(tmp_path, text.replace(f"output_dir: runs/{name}", 'output_dir: "%s"'))

    def test_degree_far_from_image(self, tmp_path, capsys):
        # No element of the cap lies near the south pole.
        cfg, out = self._shipped(tmp_path, "sphere_cap")
        assert main(["degree", str(cfg), "--point", "0", "0", "-1"]) == 0
        assert capsys.readouterr().out == (
            "degree: 0\nmollified_integral: 0.0\nmethods_agree: true\n"
        )
        assert (out / "initial_degree.csv").exists()

    def test_degree_on_boundary_chord_image_exit_5(self, tmp_path, capsys):
        # 3.2e-4 from the torus band's boundary chords in space, but on
        # their image in the target's chart.
        cfg, out = self._shipped(tmp_path, "torus_band")
        point = ["2.248884557689365", "0.05353343547302427", "-0.4332885344537498"]
        assert main(["degree", str(cfg), "--point", *point]) == 5
        assert capsys.readouterr().err == (
            "error: target point is 1.050e-16 from the boundary image in its chart "
            "(margin 1.0e-06)\n"
        )
        assert not (out / "initial_degree.csv").exists()

    def test_residual_initial_config(self, tmp_path, capsys):
        text = """
surface: {kind: sphere, radius: 1.0}
domain: {kind: disk, resolution: 0.25}
initial_map: {kind: stereographic_cap, latitude: 1.0471975511965976}
diagnostics: {injectivity: false, degree_points: 0, residual_fields: 6}
output_dir: "%s"
seed: 5
"""
        cfg, out = write_config(tmp_path, text)
        assert main(["residual", str(cfg)]) == 0
        lines = (out / "initial_residuals.csv").read_text().splitlines()
        assert lines[1].split(",")[0] == "test_field_id"
        assert len(lines) == 2 + 6

    def test_initial_diagnostics_keep_minimize_outputs(self, tmp_path, capsys):
        # residual and degree evaluate the initial configuration; a minimize
        # run's tables in the same output_dir keep their bytes.
        text = """
surface: {kind: sphere, radius: 1.0}
domain: {kind: disk, resolution: 0.15}
initial_map: {kind: stereographic_cap, latitude: 1.0471975511965976}
diagnostics: {injectivity: false, degree_points: 5, residual_fields: 3}
output_dir: "%s"
"""
        cfg, out = write_config(tmp_path, text)
        assert main(["minimize", str(cfg)]) == 0
        tables = ("degree.csv", "residuals.csv")
        before = {name: (out / name).read_bytes() for name in tables}
        assert main(["residual", str(cfg)]) == 0
        assert main(["degree", str(cfg), "--point", "0.3", "0.2", "0.93"]) == 0
        for name in tables:
            assert (out / name).read_bytes() == before[name]
        assert (out / "initial_residuals.csv").read_bytes() != before["residuals.csv"]
        assert len((out / "initial_degree.csv").read_text().splitlines()) == 3

    @pytest.mark.parametrize("command", ["residual", "minimize"])
    def test_mesh_without_interior_vertex_exit_5(self, tmp_path, capsys, command):
        text = 'domain: {kind: unit_square, resolution: 2.0}\noutput_dir: "%s"\n'
        cfg, _ = write_config(tmp_path, text)
        assert main([command, str(cfg)]) == 5
        assert "no interior vertex" in capsys.readouterr().err

    def test_no_anchor_off_the_boundary_image_exit_5(self, tmp_path, capsys):
        # The map flattens the square onto its bottom edge, so every
        # interior vertex lands on the boundary image.
        text = """
surface: {kind: plane}
domain: {kind: unit_square, resolution: 0.25}
initial_map: {kind: affine, matrix: [[1.0, 0.0], [0.0, 0.0]]}
output_dir: "%s"
"""
        cfg, out = write_config(tmp_path, text)
        assert main(["residual", str(cfg)]) == 5
        err = capsys.readouterr().err
        assert "no interior vertex clears the boundary image" in err
        assert not (out / "initial_residuals.csv").exists()
