import json
import math
import warnings
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

import gategeom.volumes
from conftest import CNOT, abelian_gate, matrix_to_json_dict, write_matrix_json
from gategeom.cli import _FMT, cli, parse_angle
from gategeom.coords import in_weyl_chamber
from gategeom.gates import assemble
from gategeom.invariants import canonical_coords, g_from_c
from gategeom.volumes import cube_volume_quadrature, is_perfect_entangler
from gategeom.verify import _random_full_coords

DATA = Path(__file__).parent / "data"
README = Path(__file__).parents[1] / "README.md"
#: The keys each class command prints, in its order, for a matrix.
CLASS_KEYS = {
    "invariants": ["g", "c", "chi", "perfect_entangler", "density"],
    "canonicalize": ["c", "chi"],
    "classify": ["c", "g", "perfect_entangler", "density"],
}
#: A point on the face c3 = 0 with c1 > pi/2: the class of (pi - 2, 0.5, 0).
FACE_POINT = (2.0, 0.5, 0.0)


def json_floats(obj):
    """Every float in a decoded JSON document, depth first."""
    if isinstance(obj, float):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from json_floats(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from json_floats(v)


def assert_documented_precision(text):
    """JSON reports carry no digits beyond 12 significant ones."""
    floats = list(json_floats(json.loads(text)))
    assert floats
    for x in floats:
        assert float(_FMT % x) == x, x


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def cnot_file(tmp_path):
    return write_matrix_json(tmp_path / "cnot.json", CNOT)


class TestParseAngle:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("pi/4", np.pi / 4),
            ("3pi/8", 3 * np.pi / 8),
            ("-pi", -np.pi),
            ("2*pi/3", 2 * np.pi / 3),
            (".5pi", np.pi / 2),
            ("0.25", 0.25),
            ("1e-3", 1e-3),
        ],
    )
    def test_accepted_forms(self, text, value):
        assert parse_angle(text) == pytest.approx(value, rel=1e-15)

    def test_rejects_garbage(self):
        with pytest.raises(click.BadParameter):
            parse_angle("two*pi")

    @pytest.mark.parametrize(
        "args",
        [
            ["classify", "--coords", "pi/0,0,0"],
            ["volume", "cube", "--gate", "cnot", "--side", "pi/0"],
        ],
    )
    def test_zero_denominator_is_usage_error(self, runner, args):
        result = runner.invoke(cli, args)
        assert result.exit_code == 2
        assert "zero denominator" in result.stderr


class TestGoldenOutputs:
    """Frozen byte-for-byte outputs; regenerate only for a deliberate
    format change, never to absorb a numeric drift."""

    def golden(self, name):
        return (DATA / name).read_text()

    def test_invariants_from_coords(self, runner):
        result = runner.invoke(cli, ["invariants", "--coords", "pi/2,0,0", "--json"])
        assert result.exit_code == 0
        assert result.output == self.golden("invariants_coords_cnot.json")

    def test_invariants_from_matrix(self, runner, cnot_file):
        result = runner.invoke(cli, ["invariants", cnot_file, "--json"])
        assert result.exit_code == 0
        assert result.output == self.golden("invariants_matrix_cnot.json")

    def test_classify_json(self, runner):
        result = runner.invoke(
            cli, ["classify", "--coords", "pi/4,pi/4,pi/4", "--json"]
        )
        assert result.exit_code == 0
        assert result.output == self.golden("classify_sqrt_swap.json")

    def test_classify_text(self, runner):
        result = runner.invoke(cli, ["classify", "--coords", "pi/2,pi/4,pi/4"])
        assert result.exit_code == 0
        assert result.output == self.golden("classify_text_midpoint.txt")

    def test_canonicalize(self, runner, cnot_file):
        result = runner.invoke(cli, ["canonicalize", cnot_file, "--json"])
        assert result.exit_code == 0
        assert result.output == self.golden("canonicalize_cnot.json")

    def test_volume_pe(self, runner):
        result = runner.invoke(cli, ["volume", "pe", "--json"])
        assert result.exit_code == 0
        assert result.output == self.golden("volume_pe.json")

    def test_volume_cube_all_methods(self, runner):
        result = runner.invoke(
            cli,
            [
                "volume", "cube", "--gate", "b-gate", "--side", "0.3",
                "--methods", "all", "--samples", "60000", "--seed", "0",
                "--threads", "2", "--json",
            ],
        )
        assert result.exit_code == 0
        assert result.output == self.golden("volume_cube_bgate.json")
        payload = json.loads(result.output)
        assert payload["agreement"] is True

    def test_sample_csv(self, runner):
        result = runner.invoke(
            cli, ["sample", "-n", "5", "--seed", "1", "--format", "csv"]
        )
        assert result.exit_code == 0
        assert result.output == self.golden("sample_head.csv")

    def test_mesh_weyl_g(self, runner):
        result = runner.invoke(cli, ["mesh", "weyl-g", "--resolution", "5"])
        assert result.exit_code == 0
        assert result.output == self.golden("mesh_weyl_g_small.csv")


class TestInvariantsCommand:
    def test_matrix_and_coords_conflict(self, runner, cnot_file):
        result = runner.invoke(
            cli, ["invariants", cnot_file, "--coords", "pi/2,0,0"]
        )
        assert result.exit_code == 2

    def test_needs_some_input(self, runner):
        result = runner.invoke(cli, ["invariants"])
        assert result.exit_code == 2

    def test_reads_matrix_from_stdin(self, runner):
        payload = json.dumps(matrix_to_json_dict(CNOT))
        result = runner.invoke(cli, ["invariants", "-", "--json"], input=payload)
        assert result.exit_code == 0
        assert json.loads(result.output)["perfect_entangler"] is True

    def test_non_unitary_matrix_is_input_error(self, runner, tmp_path):
        path = write_matrix_json(tmp_path / "bad.json", np.ones((4, 4)))
        result = runner.invoke(cli, ["invariants", path])
        assert result.exit_code == 2
        assert "unitarity violation" in result.stderr

    @pytest.mark.parametrize("command", ["invariants", "canonicalize", "classify"])
    def test_entry_too_large_for_a_float_is_input_error(self, runner, tmp_path, command):
        """An integer entry of 10**400 raised a bare OverflowError: exit 1."""
        matrix = matrix_to_json_dict(CNOT)
        matrix["matrix"][2][1] = [0, 10**400]
        path = tmp_path / "big.json"
        path.write_text(json.dumps(matrix))
        result = runner.invoke(cli, [command, str(path)])
        assert result.exit_code == 2
        assert "entry (2,1) is too large for a float" in result.stderr

    def test_missing_file_is_io_error(self, runner, tmp_path):
        result = runner.invoke(cli, ["invariants", str(tmp_path / "absent.json")])
        assert result.exit_code == 3

    def test_coords_outside_chamber_rejected(self, runner):
        result = runner.invoke(cli, ["invariants", "--coords", "0.2,0.6,0.1"])
        assert result.exit_code == 2
        assert "outside the chamber" in result.stderr

    def test_both_inputs_print_one_field_order(self, runner, cnot_file):
        from_coords = runner.invoke(cli, ["invariants", "--coords", "pi/2,0,0"])
        from_matrix = runner.invoke(cli, ["invariants", cnot_file])
        assert from_coords.exit_code == from_matrix.exit_code == 0
        keys = [line.split(" = ")[0] for line in from_coords.output.splitlines()]
        assert keys == ["g", "c", "perfect_entangler", "density"]
        keys = [line.split(" = ")[0] for line in from_matrix.output.splitlines()]
        assert keys == ["g", "c", "chi", "perfect_entangler", "density"]


class TestCanonicalizeCommand:
    def test_recovers_coordinates_of_a_dressed_gate(self, runner, rng, tmp_path):
        x = _random_full_coords(rng)
        path = write_matrix_json(tmp_path / "gate.json", assemble(x))
        result = runner.invoke(cli, ["canonicalize", path, "--json"])
        assert result.exit_code == 0
        got = json.loads(result.output)
        np.testing.assert_allclose(got["c"], x.c.as_tuple(), atol=1e-8)
        assert 0.0 <= got["chi"] < np.pi / 2


class TestClassReport:
    @pytest.mark.parametrize(
        "source",
        [CNOT, "pi/2,pi/4,0", abelian_gate(FACE_POINT), "2.0,0.5,0"],
        ids=["cnot-matrix", "coords", "face-matrix", "face-coords"],
    )
    def test_canonicalize_and_classify_print_parts_of_invariants(self, runner, tmp_path, source):
        from_coords = isinstance(source, str)
        args = ["--coords", source] if from_coords else [write_matrix_json(tmp_path / "gate.json", source)]

        def report(command):
            text = runner.invoke(cli, [command, *args])
            data = runner.invoke(cli, [command, *args, "--json"])
            assert text.exit_code == data.exit_code == 0
            return text.output.splitlines(), json.loads(data.output)

        lines, full_json = report("invariants")
        full = dict(line.split(" = ") for line in lines)
        assert list(full) == [k for k in CLASS_KEYS["invariants"] if not (from_coords and k == "chi")]
        for command in ("classify",) if from_coords else ("canonicalize", "classify"):
            lines, payload = report(command)
            keys = CLASS_KEYS[command]
            assert lines == [f"{k} = {full[k]}" for k in keys]
            assert payload == {k: full_json[k] for k in keys}

    def test_face_point_prints_one_form_from_either_input(self, runner, tmp_path):
        """``--coords 2.0,0.5,0`` printed c = 2 0.5 0, where its matrix prints pi - 2."""
        path = write_matrix_json(tmp_path / "face.json", abelian_gate(FACE_POINT))
        runs = [(command, [path]) for command in CLASS_KEYS]
        runs += [(command, ["--coords", "2.0,0.5,0"]) for command in ("invariants", "classify")]
        printed = set()
        for command, args in runs:
            result = runner.invoke(cli, [command, *args])
            assert result.exit_code == 0
            printed |= {line for line in result.output.splitlines() if line.startswith("c = ")}
        assert printed == {"c = " + " ".join(_FMT % v for v in (np.pi - 2.0, 0.5, 0.0))}


class TestReadmeCommandList:
    def usages(self):
        """The lines of README's command list, split into words."""
        section = README.read_text().split("## Command line", 1)[1]
        block = section.split("```text\n", 1)[1].split("```", 1)[0]
        return [line.split() for line in block.splitlines()]

    def test_names_every_command_once(self):
        usages = self.usages()
        assert {u[0] for u in usages} == {"gategeom"}
        assert sorted(u[1] for u in usages) == sorted(cli.commands)
        for group in ("volume", "mesh"):
            (usage,) = [u for u in usages if u[1] == group]
            assert sorted(usage[2].split("|")) == sorted(cli.commands[group].commands)

    def test_lists_the_inputs_each_command_accepts(self):
        for usage in self.usages():
            params = {p.name for p in cli.commands[usage[1]].params}
            assert ("MATRIX" in usage) == ("matrix" in params), usage
            assert ("--coords" in usage) == ("coords" in params), usage


class TestVolumeCommands:
    def test_cube_gate_and_center_conflict(self, runner):
        result = runner.invoke(
            cli,
            ["volume", "cube", "--gate", "cnot", "--center", "pi/2,0,0", "--side", "0.1"],
        )
        assert result.exit_code == 2

    def test_cube_closed_range_error_surfaces_as_input_error(self, runner):
        result = runner.invoke(
            cli,
            ["volume", "cube", "--gate", "b-gate", "--side", "2.0", "--methods", "closed"],
        )
        assert result.exit_code == 2
        assert "cube_volume_quadrature" in result.stderr

    def test_cube_out_of_range_closed_downgrades_to_note(self, runner):
        result = runner.invoke(
            cli,
            [
                "volume", "cube", "--gate", "b-gate", "--side", "2.0",
                "--methods", "closed,quadrature", "--json",
            ],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert "unavailable" in payload["closed"]
        assert payload["quadrature"] > 0

    @pytest.mark.parametrize(("side", "code"), [("1e150", 2), ("1e53", 2), ("0.3", 0), ("10", 0)])
    def test_cube_mc_refuses_sums_it_cannot_keep_exact(self, runner, side, code):
        """1e150 printed mc = inf and mc_error = nan with an overflow warning,
        and exited 0."""
        args = ["volume", "cube", "--gate", "identity", "--side", side,
                "--methods", "mc", "--samples", "100", "--json"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(cli, args)
        assert result.exit_code == code and caught == []
        if code == 0:
            assert math.isfinite(json.loads(result.output)["mc_error"])

    def test_cube_chamber_clip_matches_library(self, runner):
        result = runner.invoke(
            cli,
            [
                "volume", "cube", "--center", "pi/4,pi/4,pi/4", "--side", "0.4",
                "--clip", "chamber", "--methods", "quadrature", "--json",
            ],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        expected = cube_volume_quadrature(np.full(3, np.pi / 4), 0.4, clip="chamber")
        assert payload["quadrature"] == pytest.approx(expected, rel=1e-12)

    def test_cube_closed_refuses_chamber_clip(self, runner):
        result = runner.invoke(
            cli,
            [
                "volume", "cube", "--gate", "cnot", "--side", "0.2",
                "--clip", "chamber", "--methods", "closed",
            ],
        )
        assert result.exit_code == 2

    def test_cylinder_center_takes_pi_notation(self, runner):
        args = ["volume", "cylinder", "--radius", "0.1", "--height", "0.2", "--json"]
        result = runner.invoke(cli, args + ["--center", "pi/16,0,0"])
        assert result.exit_code == 0
        plain = runner.invoke(cli, args + ["--center", repr(np.pi / 16) + ",0,0"])
        assert result.output == plain.output

    def test_cylinder_center_needs_three_values(self, runner):
        result = runner.invoke(
            cli, ["volume", "cylinder", "--center", "0.1,0", "--radius", "0.1", "--height", "0.2"]
        )
        assert result.exit_code == 2
        assert "center must be three comma-separated values" in result.output

    def test_cylinder_closed_vs_quadrature(self, runner):
        result = runner.invoke(
            cli,
            [
                "volume", "cylinder", "--center", "0.5,0,0", "--radius", "0.1",
                "--height", "0.2", "--json",
            ],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["closed"] == pytest.approx(payload["quadrature"], rel=1e-9)
        assert payload["agreement"] is True

    @pytest.mark.parametrize(
        "route,args",
        [
            ("cube_volume_quadrature", ["cube", "--gate", "b-gate", "--side", "0.3"]),
            ("cylinder_volume_quadrature",
             ["cylinder", "--center", "0.3,-0.1,0", "--radius", "0.2", "--height", "0.5"]),
            ("origin_volume_quadrature", ["sphere", "--radius", "0.4"]),
        ],
    )
    def test_a_drift_of_1e10_breaks_agreement(self, runner, monkeypatch, route, args):
        exact = runner.invoke(cli, ["volume", *args, "--json"])
        assert json.loads(exact.output)["agreement"] is True
        quadrature = getattr(gategeom.volumes, route)
        monkeypatch.setattr(
            gategeom.volumes, route, lambda *a, **k: quadrature(*a, **k) * (1.0 + 1e-10)
        )
        drifted = runner.invoke(cli, ["volume", *args, "--json"])
        assert drifted.exit_code == 0
        assert json.loads(drifted.output)["agreement"] is False

    def test_sphere_closed_form(self, runner):
        result = runner.invoke(
            cli, ["volume", "sphere", "--radius", "0.05", "--json"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["closed"] == pytest.approx(3 * np.pi * 0.05**2, rel=1e-12)

    @pytest.mark.parametrize(
        "args",
        [
            ["sphere", "--radius", "-1"],
            ["cube", "--gate", "b-gate", "--side", "-0.3"],
            ["cylinder", "--center", "0.1,0.1,0", "--radius", "-0.2", "--height", "0.2"],
            ["cylinder", "--center", "0.1,0.1,0", "--radius", "nan", "--height", "0.2"],
        ],
    )
    @pytest.mark.parametrize("methods", ["mc", "closed,quadrature"])
    def test_invalid_sizes_are_input_errors(self, runner, args, methods):
        result = runner.invoke(cli, ["volume", *args, "--methods", methods, "--samples", "1000"])
        assert result.exit_code == 2
        assert "must be" in result.stderr

    @pytest.mark.parametrize("methods", ["mc", "quadrature", "closed"])
    def test_non_finite_cube_center_is_an_input_error(self, runner, methods):
        """The mc route printed nan and exited 0."""
        result = runner.invoke(
            cli,
            ["volume", "cube", "--center", "nan,0.2,0.1", "--side", "0.3",
             "--methods", methods, "--samples", "1000"],
        )
        assert result.exit_code == 2
        assert "center must be three finite numbers" in result.stderr

    def test_long_cube_quadrature_returns_at_once(self, runner):
        """Its fold visited every pi/2 cell along each side: minutes at 1e9."""
        args = ["volume", "cube", "--gate", "identity", "--methods", "quadrature", "--json"]
        result = runner.invoke(cli, [*args, "--side", "1e9"])
        assert result.exit_code == 0
        assert json.loads(result.output)["quadrature"] > 0
        result = runner.invoke(cli, [*args, "--side", "1e300"])
        assert result.exit_code == 2
        assert "too many images" in result.stderr

    def test_unknown_method_rejected(self, runner):
        result = runner.invoke(
            cli, ["volume", "pe", "--methods", "closed,divination"]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "args,message",
        [
            (["pe", "--seed", "-1"], "seed must be a non-negative integer"),
            (["cube", "--gate", "cnot", "--side", "0.1", "--samples", "0"], "sample count"),
            (["pe", "--samples", "1"], "at least 2 samples"),
            (["pe", "--threads", "-2"], "worker_count"),
            (["pe", "--methods", "mc", "--threads", "0"], "worker_count must be a positive integer"),
        ],
    )
    def test_monte_carlo_options_are_checked_whatever_the_methods(self, runner, args, message):
        """With the default closed,quadrature methods these printed a report
        and exited 0; only --methods mc rejected them."""
        result = runner.invoke(cli, ["volume", *args])
        assert result.exit_code == 2
        assert message in result.stderr
        assert result.stdout == ""

    def test_one_sample_gives_no_monte_carlo_error(self, runner):
        """It printed mc_error 0 and agreement false, then exited 0."""
        result = runner.invoke(
            cli, ["volume", "pe", "--methods", "closed,mc", "--samples", "1", "--json"]
        )
        assert result.exit_code == 2
        assert "at least 2 samples" in result.stderr


class TestSampleCommand:
    def test_runs_are_reproducible(self, runner):
        args = ["sample", "-n", "64", "--seed", "9", "--format", "csv"]
        first = runner.invoke(cli, args)
        second = runner.invoke(cli, args)
        assert first.exit_code == second.exit_code == 0
        assert first.output == second.output

    def test_seed_matters(self, runner):
        a = runner.invoke(cli, ["sample", "-n", "8", "--seed", "0", "--format", "csv"])
        b = runner.invoke(cli, ["sample", "-n", "8", "--seed", "1", "--format", "csv"])
        assert a.output != b.output

    def test_zero_count_rejected(self, runner):
        result = runner.invoke(cli, ["sample", "-n", "0"])
        assert result.exit_code == 2

    def test_negative_seed_is_input_error(self, runner):
        result = runner.invoke(cli, ["sample", "-n", "3", "--seed", "-1"])
        assert result.exit_code == 2
        assert "seed must be a non-negative integer" in result.stderr

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_must_be_positive(self, runner, threads):
        """--threads 0 ran on every core, as if the option were not given."""
        result = runner.invoke(cli, ["sample", "-n", "3", "--threads", threads])
        assert result.exit_code == 2
        assert "worker_count must be a positive integer" in result.stderr
        assert result.stdout == ""

    def test_summary_format(self, runner):
        result = runner.invoke(
            cli, ["sample", "-n", "2000", "--seed", "4", "--format", "summary"]
        )
        assert result.exit_code == 0
        summary = json.loads(result.output)
        assert set(summary) == {"count", "pe_fraction", "mean_c", "mean_g"}
        assert summary["count"] == 2000
        assert 0.8 < summary["pe_fraction"] < 0.9

    def test_summary_keeps_documented_precision(self, runner):
        result = runner.invoke(
            cli, ["sample", "-n", "2000", "--seed", "4", "--format", "summary"]
        )
        assert result.exit_code == 0
        assert_documented_precision(result.output)

    def test_jsonl_lines_parse(self, runner):
        result = runner.invoke(
            cli, ["sample", "-n", "3", "--seed", "5", "--format", "jsonl"]
        )
        assert result.exit_code == 0
        records = [json.loads(line) for line in result.output.splitlines()]
        assert len(records) == 3
        assert all({"c", "g", "is_pe"} <= set(r) for r in records)

    def test_output_file(self, runner, tmp_path):
        path = tmp_path / "out.csv"
        result = runner.invoke(
            cli, ["sample", "-n", "4", "--seed", "2", "-o", str(path)]
        )
        assert result.exit_code == 0
        assert path.read_text().startswith("c1,c2,c3,")

    def test_unwritable_output_is_io_error(self, runner, tmp_path):
        target = tmp_path / "no-such-dir" / "out.csv"
        result = runner.invoke(cli, ["sample", "-n", "4", "-o", str(target)])
        assert result.exit_code == 3


class TestMeshCommands:
    def test_weyl_c_membership_grid(self, runner):
        result = runner.invoke(cli, ["mesh", "weyl-c", "--resolution", "9"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "c1,c2,c3,is_pe"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert in_weyl_chamber(rows[:, 0], rows[:, 1], rows[:, 2]).all()
        recomputed = is_perfect_entangler(rows[:, :3])
        np.testing.assert_array_equal(rows[:, 3].astype(bool), recomputed)

    def test_weyl_g_second_invariant_bound(self, runner):
        result = runner.invoke(cli, ["mesh", "weyl-g", "--resolution", "15"])
        assert result.exit_code == 0
        rows = np.array(
            [[float(v) for v in line.split(",")] for line in result.output.splitlines()[1:]]
        )
        assert np.abs(rows[:, 1]).max() <= 0.25 + 1e-12

    def test_density_slice_peak_on_the_floor(self, runner):
        result = runner.invoke(
            cli, ["mesh", "density-slice", "--c3", "0", "--resolution", "81"]
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "c1,c2,density"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        peak = rows[np.argmax(rows[:, 2])]
        assert peak[2] == pytest.approx(12.0 / np.pi, abs=1e-9)
        np.testing.assert_allclose(peak[:2], (np.pi / 2, np.pi / 4), atol=1e-12)

    def test_density_slice_above_the_floor_is_flatter(self, runner):
        result = runner.invoke(
            cli, ["mesh", "density-slice", "--c3", "pi/4", "--resolution", "41"]
        )
        assert result.exit_code == 0
        rows = np.array(
            [[float(v) for v in line.split(",")] for line in result.output.splitlines()[1:]]
        )
        assert rows[:, 2].max() < 12.0 / np.pi

    def test_slice_height_validated(self, runner):
        result = runner.invoke(cli, ["mesh", "density-slice", "--c3", "pi"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("kind", ["weyl-c", "weyl-g", "density-slice"])
    def test_resolution_below_two_is_usage_error(self, runner, kind):
        result = runner.invoke(cli, ["mesh", kind, "--resolution", "1"])
        assert result.exit_code == 2
        assert "--resolution" in result.output


class TestVerifyCommand:
    def test_single_check_passes(self, runner):
        result = runner.invoke(cli, ["verify", "--only", "elliptic"])
        assert result.exit_code == 0
        assert "PASS" in result.output
        assert "1/1 checks passed" in result.output

    def test_json_schema(self, runner):
        result = runner.invoke(cli, ["verify", "--only", "elliptic", "--json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert set(payload) == {"level", "seed", "passed", "checks"}
        assert payload["passed"] is True
        (check,) = payload["checks"]
        assert set(check) == {"name", "passed", "detail", "duration"}

    def test_json_keeps_documented_precision(self, runner):
        result = runner.invoke(cli, ["verify", "--only", "elliptic", "--json"])
        assert result.exit_code == 0
        assert_documented_precision(result.output)

    def test_unmatched_filter_is_usage_error(self, runner):
        result = runner.invoke(cli, ["verify", "--only", "nonsense"])
        assert result.exit_code == 2

    def test_negative_seed_is_input_error(self, runner):
        result = runner.invoke(cli, ["verify", "--seed", "-1", "--only", "pe-volume-mc"])
        assert result.exit_code == 2
        assert "seed must be a non-negative integer" in result.stderr
        assert "checks passed" not in result.output

    def test_corrupted_constant_fails_verification(self, runner, monkeypatch):
        monkeypatch.setattr(gategeom.volumes, "PE_VOLUME_CLOSED", 0.9)
        result = runner.invoke(cli, ["verify", "--only", "pe-volume-quadrature"])
        assert result.exit_code == 1
        assert "FAIL" in result.output


class TestTopLevel:
    def test_version(self, runner):
        result = runner.invoke(cli, ["--version"])
        assert result.exit_code == 0
        assert "gategeom" in result.output

    def test_unknown_subcommand(self, runner):
        result = runner.invoke(cli, ["teleport"])
        assert result.exit_code == 2
