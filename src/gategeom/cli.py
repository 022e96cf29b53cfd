"""Command-line interface.

Numeric output uses 12 significant digits; every command that prints a
structured result also takes ``--json``.  Exit codes: 0 success, 1
failed verification or internal inconsistency, 2 bad input, 3 I/O
trouble.
"""
from __future__ import annotations

import dataclasses
import json
import os
import re
import sys

import click
import numpy as np

from . import __version__
from .coords import CanonicalCoords, in_weyl_chamber
from .errors import RangeError, ValidationError
from .gates import NAMED_GATE_POINTS, load_matrix_json, require_unitary
from .invariants import canonical_coords, g_from_c, project_su4, validate_invariant_ranges
from .geometry import weyl_density
from .sampling import (
    SamplerConfig,
    _sink,
    export_csv,
    export_jsonl,
    sample_canonical,
    sample_gates,
    summarize_samples,
)
from . import volumes as vol
from .verify import run_checks

_FMT = "%.12g"
#: Class reports print c, g and chi (all of order one) below this
#: magnitude as 0: such values are round-off of an exact zero, and their
#: digits depend on the numpy build.
_ZERO_FLOOR = 5e-13

#: Agreement bands for the multi-method volume reports: deterministic
#: routes must match to this relative tolerance, Monte Carlo to this
#: many standard errors.  The deterministic routes agree within 3e-13
#: except on very small cubes at a wall (README, "Command line"), so a
#: drift of 1e-10 in either shows.
_AGREE_REL = 1e-12
_AGREE_SIGMA = 3.0


def _fmt(x) -> str:
    return _FMT % float(x)


def _round_floats(obj):
    """Copy of a report payload with every float rounded to ``_FMT``.

    Dicts, lists and tuples are walked; bools, ints, strings and ``None``
    pass through unchanged.  Digits beyond the documented precision
    depend on the numpy build's reduction order, so they are not printed.
    """
    if isinstance(obj, float):
        return float(_FMT % obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _snap(values) -> list[float]:
    """Values of a class report with round-off of zero printed as 0."""
    return [0.0 if abs(v) < _ZERO_FLOOR else float(v) for v in values]


def _dumps(payload) -> str:
    """JSON text of a report, floats rounded to 12 significant digits."""
    return json.dumps(_round_floats(payload), indent=2, sort_keys=True)


def _default_threads() -> int:
    return os.cpu_count() or 1


_ANGLE_RE = re.compile(r"^(-?)(\d+\.?\d*|\.\d+)?\*?pi(?:/(\d+\.?\d*|\.\d+))?$")


def parse_angle(text: str) -> float:
    """Parse an angle given as a float or in pi notation (pi/4, 3pi/8, -pi)."""
    s = str(text).strip().lower().replace(" ", "")
    m = _ANGLE_RE.match(s)
    if m:
        sign = -1.0 if m.group(1) else 1.0
        coef = float(m.group(2)) if m.group(2) else 1.0
        den = float(m.group(3)) if m.group(3) else 1.0
        if den == 0.0:
            raise click.BadParameter(f"zero denominator in angle {text!r}")
        return sign * coef * np.pi / den
    try:
        return float(s)
    except ValueError:
        raise click.BadParameter(f"cannot parse angle {text!r}") from None


def _parse_triple(text: str, what: str = "coordinates") -> tuple[float, float, float]:
    parts = [p for p in str(text).split(",") if p.strip()]
    if len(parts) != 3:
        raise click.BadParameter(f"{what} must be three comma-separated values")
    return tuple(parse_angle(p) for p in parts)


def _read_matrix(source: str) -> np.ndarray:
    return require_unitary(
        load_matrix_json(sys.stdin if source == "-" else source), what="input matrix"
    )


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        click.echo(_dumps(payload))
        return
    for key, value in payload.items():
        if isinstance(value, (list, tuple)):
            click.echo(f"{key} = " + " ".join(_fmt(v) for v in value))
        elif isinstance(value, bool):
            click.echo(f"{key} = {'yes' if value else 'no'}")
        elif isinstance(value, (int, float)):
            click.echo(f"{key} = {_fmt(value)}")
        else:
            click.echo(f"{key} = {value}")


class _Cli(click.Group):
    """Translates library errors into the documented exit codes."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except ValueError as exc:  # ValidationError and friends
            click.echo(f"error: {exc}", err=True)
            ctx.exit(2)
        except OSError as exc:
            click.echo(f"i/o error: {exc}", err=True)
            ctx.exit(3)
        except RuntimeError as exc:  # ConsistencyError: internal breakage
            click.echo(f"internal consistency failure: {exc}", err=True)
            ctx.exit(1)


@click.group(cls=_Cli)
@click.version_option(__version__, prog_name="gategeom")
def cli():
    """Invariant geometry of two-qubit gates."""


def _class_report(c: CanonicalCoords) -> dict:
    return {
        "c": _snap(c.as_tuple()),
        "g": _snap(g_from_c(c.as_array())),
        "perfect_entangler": bool(vol.is_perfect_entangler(c.as_array())),
        "density": float(weyl_density(c.as_array())),
    }


def _coords_option(coords: str) -> CanonicalCoords:
    c = _parse_triple(coords)
    if not in_weyl_chamber(*c):
        raise ValidationError(
            f"coordinates {c} lie outside the chamber; canonicalize a matrix instead"
        )
    return CanonicalCoords(*c)


@cli.command()
@click.argument("matrix", required=False)
@click.option("--coords", help="chamber coordinates c1,c2,c3 instead of a matrix file")
@click.option("--json", "as_json", is_flag=True, help="emit JSON")
def invariants(matrix, coords, as_json):
    """Full local-class report of a gate (JSON matrix file, '-' for stdin).

    Prints the invariant triple g, the chamber coordinates c, the global
    phase chi, the perfect-entangler verdict and the chamber density at
    the class point.
    """
    if (matrix is None) == (coords is None):
        raise click.UsageError("provide exactly one of MATRIX or --coords")
    if coords is not None:
        report = _class_report(_coords_option(coords))
    else:
        U = _read_matrix(matrix)
        _, phase = project_su4(U)
        report = _class_report(canonical_coords(U))
        report["chi"] = _snap([phase.chi])[0]
    order = ("g", "c", "chi", "perfect_entangler", "density")
    _emit({k: report[k] for k in order if k in report}, as_json)


@cli.command()
@click.argument("matrix")
@click.option("--json", "as_json", is_flag=True, help="emit JSON")
def canonicalize(matrix, as_json):
    """Canonical chamber coordinates and global phase of a gate."""
    U = _read_matrix(matrix)
    _, phase = project_su4(U)
    c = canonical_coords(U)
    _emit({"c": _snap(c.as_tuple()), "chi": _snap([phase.chi])[0]}, as_json)


@cli.command()
@click.argument("matrix", required=False)
@click.option("--coords", help="chamber coordinates c1,c2,c3 instead of a matrix file")
@click.option("--json", "as_json", is_flag=True, help="emit JSON")
def classify(matrix, coords, as_json):
    """Coordinates, invariants and perfect-entangler status of a class."""
    if (matrix is None) == (coords is None):
        raise click.UsageError("provide exactly one of MATRIX or --coords")
    c = _coords_option(coords) if coords is not None else canonical_coords(_read_matrix(matrix))
    _emit(_class_report(c), as_json)


@cli.group()
def volume():
    """Masses of distinguished regions under the invariant measure."""


#: Every volume command offers these methods and runs the first two by default.
_METHODS = ("closed", "quadrature", "mc")
_DEFAULT_METHODS = "closed,quadrature"


def _parse_methods(text: str) -> list[str]:
    if text.strip().lower() == "all":
        return list(_METHODS)
    methods = [m.strip().lower() for m in text.split(",") if m.strip()]
    if not methods:
        raise click.BadParameter("no methods given")
    for m in methods:
        if m not in _METHODS:
            raise click.BadParameter(f"unknown method {m!r}; choose from {', '.join(_METHODS)} or all")
    return list(dict.fromkeys(methods))


def _volume_options(fn):
    """The options every volume command shares; they reach :func:`_run_volume`."""
    for opt in reversed(
        [
            click.option(
                "--methods",
                default=_DEFAULT_METHODS,
                show_default=True,
                help=f"comma-separated subset of {{{', '.join(_METHODS)}}}, or 'all'",
            ),
            click.option("--samples", type=int, default=200_000, show_default=True),
            click.option("--seed", type=int, default=0, show_default=True),
            click.option("--threads", type=int, default=None, help="MC workers [default: cores]"),
            click.option("--json", "as_json", is_flag=True, help="emit JSON"),
        ]
    ):
        fn = opt(fn)
    return fn


def _run_volume(opts: dict, closed, quadrature, region: vol.Region) -> None:
    """Run the chosen methods and print per-method values and agreement.

    ``opts`` holds the shared options of :func:`_volume_options`.
    ``closed`` and ``quadrature`` are calls returning a value or a
    ``VolumeResult``; ``region`` is what the Monte-Carlo method samples.
    A method out of its range becomes a note when other methods run.
    """
    wanted = _parse_methods(opts["methods"])
    results, notes = {}, {}
    for m in wanted:
        if m == "mc":
            results[m] = vol.region_volume_mc(
                region,
                samples=opts["samples"],
                seed=opts["seed"],
                worker_count=opts["threads"] or _default_threads(),
            )
            continue
        try:
            value = closed() if m == "closed" else quadrature()
        except RangeError as exc:
            if len(wanted) == 1:
                raise
            notes[m] = f"unavailable ({exc})"
            continue
        results[m] = value if isinstance(value, vol.VolumeResult) else vol.VolumeResult(value)
    checks = []
    if "closed" in results and "quadrature" in results:
        exact, quad = results["closed"].value, results["quadrature"].value
        checks.append(abs(quad - exact) <= _AGREE_REL * max(abs(exact), 1e-300))
    if "mc" in results:
        ref = results.get("closed", results.get("quadrature"))
        if ref is not None:
            mc = results["mc"]
            band = _AGREE_SIGMA * max(mc.error_estimate or 0.0, 1e-300)
            checks.append(abs(mc.value - ref.value) <= band)
    payload = {}
    for name, res in results.items():
        payload[name] = res.value
        if res.error_estimate is not None:
            payload[f"{name}_error"] = res.error_estimate
    payload.update(notes)
    if checks:
        payload["agreement"] = all(checks)
    _emit(payload, opts["as_json"])


@volume.command("pe")
@_volume_options
def volume_pe(**opts):
    """Mass of the perfect-entangler wedge."""
    _run_volume(
        opts, lambda: vol.pe_volume("closed"), lambda: vol.pe_volume("quadrature"), vol.Region("pe")
    )


@volume.command("cube")
@click.option("--gate", type=click.Choice(sorted(NAMED_GATE_POINTS)), help="named center")
@click.option("--center", help="cube center c1,c2,c3 (pi notation ok)")
@click.option("--side", required=True, help="cube side length (pi notation ok)")
@click.option("--clip", type=click.Choice(["none", "chamber"]), default="none", show_default=True)
@_volume_options
def volume_cube(gate, center, side, clip, **opts):
    """Mass of a coordinate cube.

    With the default clip=none this is the unclipped absolute-density
    integral the closed forms compute; clip=chamber counts only the
    chamber share (no closed forms there).
    """
    if (gate is None) == (center is None):
        raise click.UsageError("provide exactly one of --gate or --center")
    ctr = NAMED_GATE_POINTS[gate] if gate else _parse_triple(center, "center")
    a = parse_angle(side)
    if "closed" in _parse_methods(opts["methods"]) and clip != "none":
        raise click.UsageError("closed cube forms exist only for clip=none")
    _run_volume(
        opts,
        lambda: vol.cube_volume_closed(ctr, a),
        lambda: vol.cube_volume_quadrature(ctr, a, clip=clip),
        vol.Region("cube_c", tuple(ctr), a, clip="unclipped" if clip == "none" else "chamber"),
    )


@volume.command("cylinder")
@click.option("--center", required=True, help="axis position g1,g2,g3 in invariant space")
@click.option("--radius", required=True, type=float)
@click.option("--height", required=True, type=float)
@_volume_options
def volume_cylinder(center, radius, height, **opts):
    """Mass of a g3-aligned cylinder in invariant space."""
    ctr = _parse_triple(center, "center")
    validate_invariant_ranges(*ctr)
    _run_volume(
        opts,
        lambda: vol.cylinder_volume_g(ctr[:2], radius, height),
        lambda: vol.cylinder_volume_quadrature(ctr[:2], radius, height),
        vol.Region("cylinder_g", ctr, radius, height),
    )


@volume.command("sphere")
@click.option("--radius", required=True, type=float)
@_volume_options
def volume_sphere(radius, **opts):
    """Mass of an origin-centred sphere in invariant space."""
    _run_volume(
        opts,
        lambda: vol.origin_volume_g("sphere", radius),
        lambda: vol.origin_volume_quadrature("sphere", radius),
        vol.Region("sphere_g", (0.0, 0.0, 0.0), radius),
    )


@cli.command()
@click.option("-n", "--count", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option(
    "--method",
    type=click.Choice(["matrix-oracle", "coordinate-density"]),
    default="matrix-oracle",
    show_default=True,
)
@click.option("--threads", type=int, default=None, help="worker threads [default: cores]")
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["csv", "jsonl", "summary"]),
    default="csv",
    show_default=True,
)
@click.option("-o", "--output", default="-", show_default=True, help="output file, '-' for stdout")
def sample(count, seed, method, threads, fmt, output):
    """Draw random gates under the invariant measure."""
    cfg = SamplerConfig(
        seed=seed,
        worker_count=threads or _default_threads(),
        method=method.replace("-", "_"),
    )
    if fmt == "jsonl":
        export_jsonl(_stream(output), sample_gates(count, cfg))
        return
    coords = sample_canonical(count, cfg)
    if fmt == "summary":
        _write_text(output, _dumps(summarize_samples(coords)) + "\n")
        return
    export_csv(_stream(output), coords)


@cli.group()
def mesh():
    """Point meshes for plotting the chamber and its densities."""


#: Every mesh needs at least two points along each axis.
_RESOLUTION = click.IntRange(min=2)


@mesh.command("weyl-c")
@click.option("--resolution", type=_RESOLUTION, default=25, show_default=True)
@click.option("-o", "--output", default="-", show_default=True)
def mesh_weyl_c(resolution, output):
    """Chamber membership grid with PE flags, CSV c1,c2,c3,is_pe."""
    pts = _chamber_grid(resolution)
    _write_rows(output, "c1,c2,c3,is_pe", np.column_stack([pts, vol.is_perfect_entangler(pts)]))


@mesh.command("weyl-g")
@click.option("--resolution", type=_RESOLUTION, default=25, show_default=True)
@click.option("-o", "--output", default="-", show_default=True)
def mesh_weyl_g(resolution, output):
    """Image of the chamber grid in invariant space, CSV g1,g2,g3."""
    _write_rows(output, "g1,g2,g3", g_from_c(_chamber_grid(resolution)))


@mesh.command("density-slice")
@click.option("--c3", "c3_text", default="0", show_default=True, help="slice height (pi notation ok)")
@click.option("--resolution", type=_RESOLUTION, default=61, show_default=True)
@click.option("-o", "--output", default="-", show_default=True)
def mesh_density_slice(c3_text, resolution, output):
    """Constant-c3 slice of the chamber density, CSV c1,c2,density.

    Points outside the chamber get density zero (the marginal density is
    supported on the chamber).
    """
    c3 = parse_angle(c3_text)
    if not 0.0 <= c3 <= np.pi / 2:
        raise ValidationError("slice height must lie in [0, pi/2]")
    grid = _grid(np.linspace(0.0, np.pi, resolution), np.linspace(0.0, np.pi / 2, resolution), [c3])
    inside = in_weyl_chamber(grid[:, 0], grid[:, 1], grid[:, 2])
    dens = np.where(inside, weyl_density(grid), 0.0)
    _write_rows(output, "c1,c2,density", np.column_stack([grid[:, :2], dens]))


def _grid(*axes) -> np.ndarray:
    """All points of the axes' product, (n, 3), the first axis slowest."""
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)


def _chamber_grid(resolution: int) -> np.ndarray:
    """The chamber's points on a regular grid, (n, 3), c1 slowest."""
    ax2 = np.linspace(0.0, np.pi / 2, resolution)
    grid = _grid(np.linspace(0.0, np.pi, 2 * resolution - 1), ax2, ax2)
    return grid[in_weyl_chamber(grid[:, 0], grid[:, 1], grid[:, 2])]


def _write_rows(output: str, header: str, rows: np.ndarray) -> None:
    lines = [header] + [",".join(_FMT % v for v in row) for row in rows.tolist()]
    _write_text(output, "\n".join(lines) + "\n")


def _stream(output: str):
    """What an ``--output`` option names: stdout for '-', else the file path."""
    return sys.stdout if output == "-" else output


def _write_text(output: str, text: str) -> None:
    with _sink(_stream(output)) as fh:
        fh.write(text)


@cli.command()
@click.option("--level", type=click.Choice(["quick", "full"]), default="quick", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--only", multiple=True, help="run only checks whose name contains this")
@click.option("--json", "as_json", is_flag=True, help="emit a JSON summary")
@click.pass_context
def verify(ctx, level, seed, only, as_json):
    """Run the self-verification battery; nonzero exit on any failure."""
    results = run_checks(level, seed=seed, names=list(only) or None)
    if not results:
        click.echo("error: no checks match the given names", err=True)
        ctx.exit(2)
    n_passed = sum(1 for r in results if r.passed)
    if as_json:
        payload = {
            "level": level,
            "seed": seed,
            "passed": n_passed == len(results),
            "checks": [dataclasses.asdict(r) for r in results],
        }
        click.echo(_dumps(payload))
    else:
        for r in results:
            status = "PASS" if r.passed else "FAIL"
            click.echo(f"{status}  {r.name:28s} {r.duration:7.2f}s  {r.detail}")
        click.echo(f"{n_passed}/{len(results)} checks passed")
    if n_passed != len(results):
        ctx.exit(1)


main = cli

if __name__ == "__main__":
    main()
