"""Command-line surface: spectrum tables, wavefunction sampling, kernel
evaluation with cross-route diagnostics, and the verification suite.

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 requested tolerance not reached. Output is CSV by default (JSON with
--format json), floats at 17 significant digits, and byte-identical
across identical invocations once --no-timestamp is passed.
"""

from __future__ import annotations

import argparse
import bisect
import functools
import itertools
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import oracle, propagator, spectrum, verify
from .model import PotentialParams, energy_floor, radial_extent

__all__ = ["main", "build_parser"]

# config keys that map to boolean flags rather than key=value options
_BOOL_KEYS = {"no-timestamp", "lattice", "timings"}

# the PotentialParams fields, in flag and output order, with their help;
# each flag's default is the field's own
_PHYSICS = {
    "v0": "constant well depth (energy offset)",
    "alpha": "isotropic 1/r^2 coupling",
    "beta": "cos^2/sin^2 angular coupling",
    "gamma": "1/cos^2 angular coupling, > -1/4",
    "omega": "oscillator frequency",
    "mu": "mass",
    "hbar": "reduced Planck constant",
}


class CliError(Exception):
    """Invalid input detected outside argparse; maps to exit code 2."""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


class _Rendered(str):
    """A finite float that _fmt has already rendered: a table cell that
    repeats (a grid coordinate, a sector constant) is formatted once and
    printed as it stands, in CSV and in JSON alike."""


def _json_value(obj, indent: int) -> str:
    # hand-rolled so floats keep the 17-significant-digit contract; no payload
    # holds None, an empty dict or a list but the empty "rows" that
    # _table_text splits on
    pad = " " * indent
    if isinstance(obj, dict):
        inner = ",\n".join(
            f'{pad}  "{k}": {_json_value(v, indent + 2)}' for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, list) and not obj:
        return "[]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        # JSON has no inf or nan
        return _fmt(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, _Rendered):
        return obj
    escaped = str(obj).replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def _timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _cell(v) -> str:
    # a _Rendered cell is a str, printed as it stands
    if isinstance(v, bool):
        return "true" if v else "false"
    return _fmt(v) if isinstance(v, float) else str(v)


# rows are rendered and written in blocks of this many
_BLOCK = 4096

# the % conversion that prints a cell of exactly this type as _cell and
# _json_value do; JSON strings are quoted and escaped, so only CSV has one
# for str, while a _Rendered number is printed as it stands in both
_MARKS = {
    "csv": {int: "%d", float: "%.17g", str: "%s", _Rendered: "%s"},
    "json": {int: "%d", float: "%.17g", _Rendered: "%s"},
}


def _json_row(columns: Sequence[str], cells: Iterable[str]) -> str:
    """One object of the "rows" list, from its cells as already rendered."""
    return "    {\n" + ",\n".join(f'      "{k}": {c}' for k, c in zip(columns, cells)) + "\n    }"


def _row_lines(fmt: str, columns: Sequence[str], rows: Iterable[Sequence]) -> Iterator[str]:
    """Each row rendered in fmt cell by cell, as _cell or _json_value
    renders its cells: the path of the blocks that _block_text cannot
    render at once."""
    for row in rows:
        if fmt == "csv":
            yield ",".join(map(_cell, row))
        else:
            yield _json_row(columns, [_json_value(v, 6) for v in row])


def _block_text(fmt: str, columns: Sequence[str], block: list[Sequence], sep: str) -> str:
    """The rows of block rendered in fmt and joined by sep.

    Where every row has a cell per column and each column holds cells of
    one type that a % conversion prints exactly, one template per row,
    repeated, renders the whole block at once with one %; every other
    block, and a JSON block whose text has an inf or nan, is rendered by
    _row_lines.
    """
    marks = _MARKS[fmt]
    if set(map(len, block)) == {len(columns)}:
        # one type per column exactly when there are as many types as columns
        kinds = [kind for col in zip(*block) for kind in set(map(type, col))]
        if len(kinds) == len(columns) and all(kind in marks for kind in kinds):
            cells = [marks[kind] for kind in kinds]
            template = (",".join(cells) if fmt == "csv"
                        else _json_row([c.replace("%", "%%") for c in columns], cells))
            text = sep.join([template] * len(block)) % tuple(itertools.chain.from_iterable(block))
            if fmt == "csv" or not ("inf" in text or "nan" in text):
                return text
    return sep.join(_row_lines(fmt, columns, block))


def _table_text(
    args: argparse.Namespace, p: PotentialParams | None, comments: list[str], meta: dict, columns: list[str],
    rows: Iterable[Sequence],
) -> Iterator[str]:
    """The table in --format as consecutive pieces: the head, the rows
    _BLOCK at a time, and the tail."""
    if p is not None:
        params = {name: getattr(p, name) for name in _PHYSICS}
        comments = ["# params " + " ".join(f"{k}={_fmt(v)}" for k, v in params.items()), *comments]
        meta = {"params": params, **meta}
    stamp = not args.no_timestamp
    if args.format == "json":
        payload = {"generated": _timestamp()} if stamp else {}
        payload.update(meta, rows=[])
        # "rows" is the last key, so its [] is the last one in the text
        head, tail = (_json_value(payload, 0) + "\n").rsplit("[]", 1)
        lead, sep, end, empty = "[\n", ",\n", "\n  ]", "[]"
    else:
        stamped = [f"# generated {_timestamp()}"] if stamp else []
        head = "".join(f"{line}\n" for line in [*stamped, *comments, ",".join(columns)])
        tail = ""
        lead, sep, end, empty = "", "\n", "\n", ""
    yield head
    rows = iter(rows)  # each block resumes where the last one ended
    first = True
    for block in iter(lambda: list(itertools.islice(rows, _BLOCK)), []):
        yield (lead if first else sep) + _block_text(args.format, columns, block, sep)
        first = False
    yield (empty if first else end) + tail


def _emit(
    args: argparse.Namespace, p: PotentialParams | None, comments: list[str], meta: dict, columns: list[str],
    rows: Iterable[Sequence],
) -> None:
    """Write one table in --format, led by the generation timestamp unless
    --no-timestamp, then by the physics parameters p unless p is None.

    CSV gets the comment lines, the header and one line per row; JSON gets
    the meta fields and "rows", one object per row keyed by columns. rows
    may be any iterable and is read once, in blocks of _BLOCK rows: each
    block is rendered with one % template where its columns allow, and
    cell by cell otherwise (see _block_text), and written to stdout or to
    --output, so neither the whole text nor the
    whole row list is held.
    """
    pieces = _table_text(args, p, comments, meta, columns, rows)
    if not args.output:
        try:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
        except BrokenPipeError:  # the reader left (`| head`): the rest goes to devnull, not to an error at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return
    try:
        with open(args.output, "w", encoding="utf-8") as out:
            out.writelines(pieces)
    except OSError as exc:
        raise CliError(f"cannot write {args.output}: {exc.strerror or exc}") from exc


def _margin(observed: float, tolerance: float) -> float:
    """observed/tolerance; a zero tolerance gives 0 when met exactly, else inf."""
    if tolerance > 0:
        return observed / tolerance
    return 0.0 if observed <= tolerance else math.inf


def _require_nonnegative(flag: str, value: float) -> None:
    # phrased so that NaN fails too
    if not value >= 0:
        raise CliError(f"{flag} must be >= 0, got {value}")


# ------------------------------------------------------------------ spectrum

_M_SCAN_LIMIT = 100000


def _derive_m_max(p: PotentialParams, e_max: float) -> int:
    """Smallest |m| cutoff that already includes every state below e_max.

    energy_floor never decreases with |m|, so the first |m| whose floor
    exceeds e_max is found by bisection; the cutoff is one below it. Every
    floor counts as above a NaN e_max, which gives 0 for enumerate_states
    to reject.
    """
    first_above = bisect.bisect_left(range(_M_SCAN_LIMIT), True, key=lambda m: not energy_floor(p, m) <= e_max)
    if first_above == _M_SCAN_LIMIT:
        raise CliError(f"the |m| cutoff for emax={e_max} is {_M_SCAN_LIMIT} or more; pass --m to set it")
    return max(0, first_above - 1)


def _spectrum_rows(states: Iterable[spectrum.EigenState]) -> Iterator[tuple]:
    """One (n, n_theta, m, lambda, k, ell_tilde, energy) row per state.

    The three sector constants are rendered once per sector, keyed by the
    AngularMode that its states share. They are finite: a sector with an
    infinite ell_tilde has no state below a finite cutoff.
    """
    sectors: dict[int, tuple] = {}
    for qn, ang, ell, energy in states:
        if (fixed := sectors.get(id(ang))) is None:
            fixed = sectors[id(ang)] = tuple(_Rendered(_fmt(v)) for v in (ang.lam, ang.k, ell))
        yield (*qn, *fixed, energy)


def cmd_spectrum(args: argparse.Namespace, p: PotentialParams) -> int:
    m_max = args.m if args.m is not None else _derive_m_max(p, args.emax)
    states = spectrum.enumerate_states(p, e_max=args.emax, m_max=m_max)

    _emit(
        args,
        p,
        [f"# emax={_fmt(args.emax)} mmax={m_max}"],
        {"emax": args.emax, "mmax": m_max},
        ["n", "n_theta", "m", "lambda", "k", "ell_tilde", "energy"],
        _spectrum_rows(states),
    )
    return 0


# -------------------------------------------------------------- wavefunction

def cmd_wavefunction(args: argparse.Namespace, p: PotentialParams) -> int:
    state = spectrum.eigenstate(p, args.n, args.ntheta, args.m)  # rejects inadmissible sectors
    qn = state.qn

    if args.points < 2:
        raise CliError(f"--points must be >= 2, got {args.points}")
    sigma = math.sqrt(p.hbar / (p.mu * p.omega))
    ra = args.ra if args.ra is not None else 0.1 * sigma
    rb = args.rb if args.rb is not None else 5.0 * sigma
    if not 0 < ra < rb < math.inf:
        raise CliError(f"radial range requires 0 < ra < rb < inf, got ({ra}, {rb})")
    rs = np.linspace(ra, rb, args.points)
    ths = math.pi / 2 * np.arange(1, 10) / 10.0
    phs = 2 * math.pi * np.arange(8) / 8.0
    # psi is evaluated a block of radii at a time, so its memory stays bounded
    radii = max(1, _BLOCK // (ths.size * phs.size))
    starts = range(0, args.points, radii)

    def block_psi(i: int) -> np.ndarray:
        return spectrum.full_wavefunction(p, qn, rs[i:i + radii, None, None], ths[None, :, None], phs[None, None, :])

    # the largest radii first: the Laguerre polynomials leave the float range
    # there first, and such an error then stops the table before its head
    last = block_psi(starts[-1])

    # norm by independent quadrature out to radial_extent; the phi factor integrates to 1 exactly
    radial = functools.partial(spectrum.radial_wavefunction, p, qn.n, state.ell_tilde)
    angular = functools.partial(spectrum.angular_wavefunction, state.angular)
    rad = oracle.inner_product_radial(radial, radial, radial_extent(p, qn.n, state.ell_tilde)).value
    ang = oracle.inner_product_angular(angular, angular).value
    norm = math.sqrt(rad * ang)

    # one row per grid point, r slowest and phi fastest; each coordinate is
    # rendered once, and only psi per row
    th_cells, ph_cells = ([_Rendered(_fmt(v)) for v in axis.tolist()] for axis in (ths, phs))
    th_col, ph_col = [t for t in th_cells for _ in ph_cells], ph_cells * len(th_cells)

    def rows() -> Iterator[tuple]:
        for i in starts:
            psi = last if i == starts[-1] else block_psi(i)
            r_cells = [_Rendered(_fmt(v)) for v in rs[i:i + radii].tolist()]
            yield from zip([r for r in r_cells for _ in th_col], th_col * len(r_cells), ph_col * len(r_cells),
                           psi.real.ravel().tolist(), psi.imag.ravel().tolist())

    _emit(
        args,
        p,
        [f"# state n={qn.n} ntheta={qn.n_theta} m={qn.m} energy={_fmt(state.energy)}", f"# norm {_fmt(norm)}"],
        {"state": {"n": qn.n, "n_theta": qn.n_theta, "m": qn.m, "energy": state.energy}, "norm": norm},
        ["r", "theta", "phi", "re_psi", "im_psi"],
        rows(),
    )
    return 0


# ---------------------------------------------------------------- propagator

def cmd_propagator(args: argparse.Namespace, p: PotentialParams) -> int:
    _require_nonnegative("--tol", args.tol)
    _require_nonnegative("--lattice-tol", args.lattice_tol)
    query = (p, args.ntheta, args.m, args.ra, args.rb, args.tau)
    closed = propagator.radial_kernel_closed(*query)
    spectral = propagator.radial_kernel_spectral(*query, args.n)
    # (route, value, its extra rows, tolerance, hint), each checked against the closed value
    routes = [("spectral", spectral.value, [("spectral_tail_bound", spectral.tail_bound)],
               args.tol, f"raise the spectral cutoff above --n {args.n}")]
    if args.lattice:
        lat = propagator.lattice_radial_kernel(*query, propagator.LatticeSpec(n_slices=args.slices))
        routes.append(("lattice", lat, [], args.lattice_tol, f"raise the slice count above --slices {args.slices}"))

    entries: list[tuple[str, float]] = [("closed", closed)]
    failures: list[str] = []
    for route, value, extra, tol, hint in routes:
        # relative to the closed value, which underflows to 0 at long times
        rel = _margin(abs(closed - value), abs(closed))
        entries += [(route, value), *extra, (f"rel_diff_{route}_vs_closed", rel)]
        if rel > tol:
            failures.append(f"{route} route off by {rel:.3e} > tolerance {tol:.3e}; {hint}")

    _emit(
        args,
        p,
        [f"# query ra={_fmt(args.ra)} rb={_fmt(args.rb)} tau={_fmt(args.tau)}"
         f" ntheta={args.ntheta} m={args.m} ncut={args.n}"],
        {
            "query": {"ra": args.ra, "rb": args.rb, "tau": args.tau,
                      "ntheta": args.ntheta, "m": args.m, "ncut": args.n},
        },
        ["quantity", "value"],
        entries,
    )
    for msg in failures:
        print(f"tolerance not reached: {msg}", file=sys.stderr)
    return 3 if failures else 0


# -------------------------------------------------------------------- verify

def cmd_verify(args: argparse.Namespace, p: None) -> int:
    _require_nonnegative("--tol-scale", args.tol_scale)
    results = verify.run_suite(args.suite, tol_scale=args.tol_scale)
    n_pass = sum(r.passed for r in results)

    columns = ["suite", "check", "passed", "observed", "tolerance"]
    if args.timings:
        # detail is free text, so only JSON carries it
        columns += ["seconds", "margin"] + (["detail"] if args.format == "json" else [])
    rows = [
        (r.suite, r.name, r.passed, r.observed, r.tolerance,
         r.seconds, _margin(r.observed, r.tolerance), r.detail)[:len(columns)]
        for r in results
    ]
    _emit(
        args,
        p,
        [f"# suite={args.suite} tol-scale={_fmt(args.tol_scale)}", f"# passed {n_pass}/{len(results)}"],
        {"suite": args.suite, "tol_scale": args.tol_scale, "all_passed": n_pass == len(results)},
        columns,
        rows,
    )
    return 0 if n_pass == len(results) else 1


# ------------------------------------------------------------------- parsing

def _add_physics_flags(sp: argparse.ArgumentParser) -> None:
    for name, text in _PHYSICS.items():
        sp.add_argument(f"--{name}", type=float, default=getattr(PotentialParams, name), help=text)


def _add_output_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    sp.add_argument("--output", default=None, metavar="PATH", help="write to file instead of stdout")
    sp.add_argument("--no-timestamp", action="store_true",
                    help="omit the generation timestamp for byte-stable output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncosc",
        description="Spectrum, eigenfunctions and Euclidean kernels of the "
                    "noncentral anharmonic oscillator, with built-in cross-checks.",
    )
    # main takes --config out first, wherever it stands, so a config file's config= line is unknown
    parser.add_argument("--config", metavar="PATH",
                        help="key=value parameter file, before or after the subcommand; explicit flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="enumerate energy levels below a cutoff")
    _add_physics_flags(sp)
    sp.add_argument("--emax", type=float, default=6.0, help="energy cutoff for the table")
    sp.add_argument("--m", type=int, default=None,
                    help="max |m| to scan (default: derived from --emax)")
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("wavefunction", help="sample one eigenstate on an (r, theta, phi) grid")
    _add_physics_flags(sp)
    sp.add_argument("--n", type=int, default=0, help="radial quantum number")
    sp.add_argument("--ntheta", type=int, default=0, help="angular quantum number")
    sp.add_argument("--m", type=int, default=0, help="azimuthal quantum number")
    sp.add_argument("--ra", type=float, default=None,
                    help="radial grid start (default 0.1 oscillator lengths)")
    sp.add_argument("--rb", type=float, default=None,
                    help="radial grid end (default 5 oscillator lengths)")
    sp.add_argument("--points", type=int, default=16, help="radial sample count")
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_wavefunction)

    sp = sub.add_parser("propagator", help="evaluate the radial kernel by independent routes")
    _add_physics_flags(sp)
    sp.add_argument("--ntheta", type=int, default=0, help="angular sector index")
    sp.add_argument("--m", type=int, default=0, help="azimuthal sector index")
    sp.add_argument("--ra", type=float, default=1.0, help="first radial endpoint")
    sp.add_argument("--rb", type=float, default=1.0, help="second radial endpoint")
    sp.add_argument("--tau", type=float, default=1.0, help="Euclidean time, > 0")
    sp.add_argument("--n", type=int, default=60, help="spectral sum cutoff")
    sp.add_argument("--tol", type=float, default=1e-8,
                    help="required closed-vs-spectral relative agreement")
    sp.add_argument("--lattice", action="store_true", help="also run the transfer-matrix route")
    sp.add_argument("--slices", type=int, default=32, help="time slices for the lattice route")
    sp.add_argument("--lattice-tol", type=float, default=1e-3,
                    help="required closed-vs-lattice relative agreement")
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_propagator)

    sp = sub.add_parser("verify", help="run the numerical cross-check suites")
    sp.add_argument("--suite", choices=("all",) + verify.SUITE_NAMES, default="all",
                    help="which checks to run")
    sp.add_argument("--tol-scale", type=float, default=1.0,
                    help="multiply every tolerance (0 must fail the suite)")
    sp.add_argument("--timings", action="store_true",
                    help="add each check's seconds and margin (observed/tolerance), and in JSON its detail")
    _add_output_flags(sp)
    sp.set_defaults(func=cmd_verify)

    return parser


_parser = functools.cache(build_parser)  # main's parser, built once per process


def _config_tokens(path: str) -> list[str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    tokens: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise CliError(f"{path}:{lineno}: empty key")
        # argparse would read help (or an abbreviation) as --help and exit 0
        if "help".startswith(key):
            raise CliError(f"{path}:{lineno}: key {key} can mean --help, which a config file cannot set")
        if key in _BOOL_KEYS:
            lowered = value.lower()
            if lowered in ("1", "true", "yes", "on"):
                tokens.append(f"--{key}")
            elif lowered not in ("0", "false", "no", "off"):
                raise CliError(f"{path}:{lineno}: boolean key {key} got {value!r}")
        elif not value:
            raise CliError(f"{path}:{lineno}: key {key} has an empty value")
        else:
            tokens.extend([f"--{key}", value])
    return tokens


@functools.cache
def _pre_parser() -> argparse.ArgumentParser:
    """main's --config pre-parser, built once per process like _parser."""
    pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False, exit_on_error=False)
    pre.add_argument("--config")
    return pre


def main(argv: list[str] | None = None) -> int:
    # --config is taken out first, wherever it stands, and every other
    # token is left in order for the full parser
    try:
        known, rest = _pre_parser().parse_known_args(sys.argv[1:] if argv is None else argv)
        if known.config is not None:
            if not rest:
                raise CliError("--config given without a subcommand")
            # config tokens go right after the subcommand so explicit
            # flags, parsed later, win
            rest = rest[:1] + _config_tokens(known.config) + rest[1:]
        args = _parser().parse_args(rest)
        # verify takes no physics flags, and so no PotentialParams
        physics = {name: getattr(args, name) for name in _PHYSICS if name in args}
        return args.func(args, PotentialParams(**physics) if physics else None)
    except (CliError, argparse.ArgumentError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
