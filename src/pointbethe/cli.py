"""Command-line front end.

Subcommands: scatter, yb-check, scan, coeffs, eigen, gauge.  Every flag can
also be supplied through a config file (``--config``) holding one
``key = value`` pair per line with ``#`` comments; flags override file
values, and a flag and a file key of the same name share one parser.  A
key given twice in one file, a flag given twice, and an empty item in a
comma-separated list are configuration errors.
Reports are plain UTF-8 with the resolved configuration echoed in
``# key = value`` header lines followed by human-readable summary lines and
machine-readable CSV blocks.  Identical configuration and seed produce
byte-identical reports at any CPU count.  ``coeffs`` at N <= 4 runs its
oracle on one BLAS thread, through the per-thread setter of the OpenBLAS
that numpy's LAPACK extension links; where that OpenBLAS lacks the
setter, its bits follow the CPU count.

Exit status: 0 all residuals within tolerance, 1 configuration error,
2 residual or coeffs oracle deviation above --tol or coeffs dimension
not N!, 3 pole or degenerate input.

--tol (default 1e-8) bounds the amplitude deviation from the oracle
relative to max(1, |S_T^+|, |S_R^+|) for scatter, absolute max-norm
residuals for yb-check, coeffs, eigen and gauge, and, for coeffs at
N <= 4, the oracle table's deviation from the fill relative to max|A|.
scan echoes it but classifies against the fixed PASS_TOL 1e-8 and
FAIL_FLOOR 1e-3.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .bethe import (MAX_N, ORACLE_MAX_N, BetheState, bethe_state,
                    coefficients_bc_oracle, state_relation_residual)
from .couplings import CouplingParameters, gauge_data
from .errors import PointBetheError
from .factorization import (GridSpec, block_reduction_check, scan_couplings,
                            scan_to_csv, yang_baxter_matrix_check)
from .scattering import amplitudes, amplitudes_bvp_oracle
from .wavefunction import (FD_STEP, boundary_residual, boundary_samples,
                           closest_gap, evaluate_grid, gauge_transformed_state,
                           schrodinger_fd_residual)

COMMANDS = ("scatter", "yb-check", "scan", "coeffs", "eigen", "gauge")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RESIDUAL = 2
EXIT_DEGENERATE = 3


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    command: str
    c: tuple[float, ...] = (0.0,)
    lam: tuple[float, ...] = (0.0,)
    gamma: tuple[float, ...] = (0.0,)
    eta: tuple[float, ...] = (0.0,)
    n_particles: int | None = None
    momenta: tuple[float, ...] | None = None
    seed: int = 0
    tolerance: float = 1e-8
    output_path: str | None = None
    lines: list[str] = field(default_factory=list)

    def scalar_params(self) -> CouplingParameters:
        for name, vals in (("c", self.c), ("lambda", self.lam),
                           ("gamma", self.gamma), ("eta", self.eta)):
            if len(vals) != 1:
                raise ConfigError(f"field {name}: command {self.command} needs a single value")
        return CouplingParameters(self.c[0], self.lam[0], self.gamma[0], self.eta[0])

    def header(self) -> list[str]:
        """The configuration as the command ran it.  N is echoed as given,
        or as coeffs, eigen and gauge resolved it; no N line otherwise."""
        out = [f"# command = {self.command}"]
        for key, vals in (("c", self.c), ("lambda", self.lam),
                          ("gamma", self.gamma), ("eta", self.eta)):
            out.append(f"# {key} = {','.join(f'{v:.17g}' for v in vals)}")
        if self.n_particles is not None:
            out.append(f"# N = {self.n_particles}")
        if self.momenta is not None:
            out.append(f"# k = {','.join(f'{v:.17g}' for v in self.momenta)}")
        out.append(f"# seed = {self.seed}")
        # the output path is deliberately not echoed: reports must be
        # byte-identical for identical config + seed wherever they land
        out.append(f"# tol = {self.tolerance:.17g}")
        return out


def _parse_float_list(text: str, key: str) -> tuple[float, ...]:
    items = text.split(",")
    if any(item.strip() == "" for item in items):
        raise ConfigError(f"field {key}: empty item in {text!r}")
    try:
        vals = tuple(float(v) for v in items)
    except ValueError as exc:
        raise ConfigError(f"field {key}: cannot parse {text!r} as numbers") from exc
    # commands that ignore a field (yb-check and scan ignore k) must
    # still refuse a non-finite value in it
    if not all(map(math.isfinite, vals)):
        raise ConfigError(f"field {key}: non-finite value in {text!r}")
    return vals


def _parse_number(text: str, key: str, kind=int, ok=lambda value: True, rule: str = ""):
    """``text`` as a ``kind``; a value that fails ``ok`` is refused as not ``rule``."""
    try:
        value = kind(text)
    except ValueError as exc:
        raise ConfigError(f"field {key}: cannot parse {text!r}") from exc
    if not ok(value):
        raise ConfigError(f"field {key}: must be {rule}, got {text!r}")
    return value


# flag name = config-file key -> (RunConfig attribute, parser of the raw text)
FIELDS = {
    "c": ("c", _parse_float_list),
    "lambda": ("lam", _parse_float_list),
    "gamma": ("gamma", _parse_float_list),
    "eta": ("eta", _parse_float_list),
    "N": ("n_particles", _parse_number),
    "k": ("momenta", _parse_float_list),
    "seed": ("seed", functools.partial(_parse_number, ok=lambda seed: seed >= 0, rule=">= 0")),
    "tol": ("tolerance", functools.partial(_parse_number, kind=float, rule="finite and > 0",
                                           ok=lambda tol: math.isfinite(tol) and tol > 0)),
    "out": ("output_path", lambda text, key: text),
}


def parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    first_line: dict[str, int] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(raw.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key != "command" and key not in FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown field {key!r}")
        if key in first_line:
            raise ConfigError(f"{path}:{lineno}: field {key!r} repeats line {first_line[key]}")
        first_line[key] = lineno
        values[key] = value.strip()
    return values


def _once(flags: dict, key: str) -> str | None:
    """The value of a flag registered with action="append", None if absent;
    a flag given twice is refused rather than the last one silently kept."""
    given = flags[key] or []
    if len(given) > 1:
        raise ConfigError(f"field {key}: flag --{key} given {len(given)} times")
    return given[0] if given else None


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's default exit code 2 collides with ours
        raise ConfigError(message)


@functools.cache
def _parser() -> _Parser:
    """The one parser of the process.  Parses share no state: each starts
    from a fresh namespace, and an append flag gets a new list each time."""
    parser = _Parser(prog="pointbethe", add_help=True, description=__doc__)
    parser.add_argument("command", nargs="?", choices=COMMANDS)
    for key in ("config", *FIELDS):
        parser.add_argument(f"--{key}", action="append")
    return parser


def build_config(argv: list[str]) -> RunConfig:
    flags = vars(_parser().parse_args(argv))

    config_path = _once(flags, "config")
    file_values = parse_config_file(config_path) if config_path else {}

    command = flags["command"] or file_values.get("command")
    if command not in COMMANDS:
        raise ConfigError(f"field command: need one of {COMMANDS}, got {command!r}")

    cfg = RunConfig(command=command)
    for key, (attr, parse) in FIELDS.items():
        raw = _once(flags, key)
        if raw is None:
            raw = file_values.get(key)
        if raw is not None:
            setattr(cfg, attr, parse(raw, key))
    return cfg


# ---------------------------------------------------------------------------
# command bodies: each appends report lines to cfg.lines and returns a status;
# one entry of cfg.lines may hold several lines joined by "\n"


def _worst(*residuals: float) -> float:
    """The largest residual, NaN if any is NaN: Python's max(0.0, nan) is
    0.0, which would pass a NaN residual as zero."""
    return float(np.max(residuals))


def _close(cfg: RunConfig, worst: float, what: str = "residual") -> int:
    """The closing ``max ... = X (tol T)`` line and its exit status."""
    cfg.lines.append(f"max {what} = {worst:.3e} (tol {cfg.tolerance:.3g})")
    return EXIT_OK if worst <= cfg.tolerance else EXIT_RESIDUAL


def _table_state(cfg: RunConfig, gate=None) -> BetheState:
    """The table of coeffs, eigen and gauge, grown from a single incident
    wave in the identity wedge.  N is --N or the length of --k, at most
    MAX_N, and is stored in cfg for the header; without --k the momenta
    are a seeded jittered spread.  ``gate(params)`` runs before the fill.
    """
    params = cfg.scalar_params()
    n = cfg.n_particles if cfg.momenta is None else len(cfg.momenta)
    if cfg.n_particles not in (None, n):
        raise ConfigError(f"field N: {cfg.n_particles} contradicts {n} momenta")
    if n is None:
        raise ConfigError("field N: required (or derive it from k)")
    if not 1 <= n <= MAX_N:
        raise ConfigError(f"field N: must be between 1 and {MAX_N}, got {n}")
    cfg.n_particles = n
    if cfg.momenta is not None:
        k = np.array(cfg.momenta)
    elif n == 1:
        k = np.array([1.0])
    else:
        # deterministic default: jittered even spread, gaps stay > 0.5
        rng = np.random.default_rng(cfg.seed)
        k = np.linspace(1.5, -1.5, n) + rng.uniform(-0.05, 0.05, n)
    if gate is not None:
        gate(params)
    a_identity = np.zeros(math.factorial(n), dtype=np.complex128)
    a_identity[0] = 1.0
    return bethe_state(params, k, a_identity)


def _pair_lines(cfg: RunConfig, state: BetheState, label: str, rng) -> float:
    """One line of contact-condition residuals per boundary pair (j, k),
    j < k, on samples drawn from rng; returns their maximum.

    The samples of every pair are drawn first, in pair order, so rng
    gives the same points as a draw-and-check loop; the checks then run
    at once on ``_kernels.thread_map``, and the lines and the maximum do
    not depend on how many threads it has.  The checks only read the
    state, which is never written after it is made.
    """
    pairs = list(itertools.combinations(range(1, state.n + 1), 2))
    samples = [boundary_samples(state.n, j, kk, rng, count=50) for j, kk in pairs]
    residuals = _kernels.thread_map(lambda pair, x: boundary_residual(state, *pair, x),
                                    pairs, samples)
    worst = 0.0
    for (j, kk), (r1, r2) in zip(pairs, residuals):
        cfg.lines.append(f"{label} ({j},{kk}): residuals {r1:.3e} {r2:.3e}")
        worst = _worst(worst, r1, r2)
    return worst


def run_scatter(cfg: RunConfig) -> int:
    params = cfg.scalar_params()
    u_grid = np.linspace(-5.0, 5.0, 40) if cfg.momenta is None else np.array(cfg.momenta)
    cfg.lines.append("u,re_st_plus,im_st_plus,re_sr_plus,im_sr_plus,"
                     "re_st_minus,im_st_minus,re_sr_minus,im_sr_minus")
    worst = 0.0
    for u in u_grid:
        amp = amplitudes(params, float(u))
        closed = (amp.s_t_plus, amp.s_r_plus, amp.s_t_minus, amp.s_r_minus)
        cfg.lines.append(",".join(f"{v:.17g}" for v in
                                  [u] + [part for z in closed for part in (z.real, z.imag)]))
        if u == 0:
            continue  # the oracle needs u != 0
        oracle = amplitudes_bvp_oracle(params, float(u))
        scale = max(1.0, abs(amp.s_t_plus), abs(amp.s_r_plus))
        worst = _worst(worst, *(abs(z - o) / scale for z, o in zip(closed, (
            oracle.s_t_plus, oracle.s_r_plus, oracle.s_t_minus, oracle.s_r_minus))))
    cfg.lines.append(f"closed form vs boundary-value oracle: max rel deviation = {worst:.3e}")
    return EXIT_OK if worst <= cfg.tolerance else EXIT_RESIDUAL


def run_yb_check(cfg: RunConfig) -> int:
    params = cfg.scalar_params()
    n = cfg.n_particles if cfg.n_particles is not None else 3
    panel = _kernels.sample_panel(cfg.seed, 100)
    report = yang_baxter_matrix_check(params, n, panel)  # ValueError outside 2..MAX_N
    cfg.lines.append(f"unitarity residual: {report.unitarity:.3e}")
    cfg.lines.append(f"braid residual:     {report.braid:.3e}")
    cfg.lines.append(f"commute residual:   {report.commute:.3e}")
    worst = _worst(report.unitarity, report.braid, report.commute)
    if n >= 4:
        block = _worst(*(block_reduction_check(n, i) for i in range(1, n - 1)))
        cfg.lines.append(f"block-reduction deviation: {block:.3e}")
        worst = _worst(worst, block)
    return _close(cfg, worst)


def run_scan(cfg: RunConfig) -> int:
    grid = GridSpec(c_values=cfg.c, lam_values=cfg.lam,
                    gamma_values=cfg.gamma, eta_values=cfg.eta, seed=cfg.seed)
    rows = scan_couplings(grid)
    cfg.lines.append(scan_to_csv(rows).rstrip("\n"))
    bad = [r for r in rows if not r.consistent]
    cfg.lines.append(f"grid points: {len(rows)}, inconsistent classifications: {len(bad)}")
    return EXIT_OK if not bad else EXIT_RESIDUAL


@functools.cache
def _row_template(order: int) -> str:
    """The %-template of one table row: its ``order`` CSV lines, with the
    row's rank left as ``{p}`` and two ``%.17g`` slots per entry."""
    return "\n".join("{p},%d,%%.17g,%%.17g" % q for q in range(1, order + 1))


def _table_csv_rows(table: np.ndarray):
    """The ``p_rank,q_rank,re_a,im_a`` lines of ``table``, 1-based ranks,
    one string per row P holding its N! lines joined by newlines.

    One ``%`` call formats a whole row; the float64 view of the row lists
    re and im of each entry in turn.  Rows are made one at a time, so only
    one row's 2 N! Python floats are alive at once, not the table's 2 N!^2.
    """
    template = _row_template(table.shape[1])
    for p, row in enumerate(table, 1):
        yield (template.replace("{p}", str(p))
               % tuple(np.ascontiguousarray(row).view(np.float64).tolist()))


def run_coeffs(cfg: RunConfig) -> int:
    state = _table_state(cfg)
    relation = state_relation_residual(state)
    cfg.lines.append("p_rank,q_rank,re_a,im_a")
    cfg.lines.extend(_table_csv_rows(state.table))
    cfg.lines.append(f"pairwise relation residual: {relation:.3e}")
    worst, status = relation, EXIT_OK
    if state.n <= ORACLE_MAX_N:
        oracle = coefficients_bc_oracle(state.params, state.k, state.table[0])
        deviation = np.abs(oracle.table - state.table).max() / np.abs(state.table).max()
        cfg.lines.append(f"boundary-system residual: {oracle.residual:.3e}")
        cfg.lines.append(f"solution-space dimension: {oracle.nullity} (expected {len(oracle.table)})")
        cfg.lines.append(f"oracle vs fill: max deviation / max|A| = {deviation:.3e}")
        worst = _worst(worst, oracle.residual)
        if oracle.nullity != len(oracle.table) or not deviation <= cfg.tolerance:
            status = EXIT_RESIDUAL  # whatever the residuals
    return max(_close(cfg, worst), status)


def run_eigen(cfg: RunConfig) -> int:
    state = _table_state(cfg)
    n = state.n
    rng = np.random.default_rng(cfg.seed)
    points = rng.uniform(-3.0, 3.0, (50, n))
    values = evaluate_grid(state, points)
    cfg.lines.append(",".join([f"x{j + 1}" for j in range(n)] + ["re_psi", "im_psi"]))
    row = ",".join(["%.17g"] * (n + 2))
    cfg.lines.extend(row % (*x, z.real, z.imag) for x, z in zip(points.tolist(), values.tolist()))
    worst = _pair_lines(cfg, state, "boundary", rng)
    # the stencil must not reach across a coincidence plane
    fd_points = points[closest_gap(points) > FD_STEP][:5]
    fd = _worst(*schrodinger_fd_residual(state, fd_points)) if len(fd_points) else math.nan
    cfg.lines.append(f"free-equation finite-difference residual: {fd:.3e}")
    return _close(cfg, worst, "boundary residual")


def run_gauge(cfg: RunConfig) -> int:
    # NotGaugeFamily before the fill; the (c, eta) table is dropped once mapped
    mapped = gauge_transformed_state(_table_state(cfg, gate=gauge_data))
    gd = gauge_data(cfg.scalar_params())
    cfg.lines.append(f"alpha = {gd.alpha:.17g}")
    cfg.lines.append(f"c_tilde = {gd.c_tilde:.17g}")
    worst = _pair_lines(cfg, mapped, "delta-gas boundary", np.random.default_rng(cfg.seed))
    return _close(cfg, worst)


_RUNNERS = {
    "scatter": run_scatter,
    "yb-check": run_yb_check,
    "scan": run_scan,
    "coeffs": run_coeffs,
    "eigen": run_eigen,
    "gauge": run_gauge,
}


def run(cfg: RunConfig) -> int:
    status = _RUNNERS[cfg.command](cfg)
    report = "\n".join(cfg.header() + cfg.lines) + "\n"
    if cfg.output_path:
        try:
            with open(cfg.output_path, "w", encoding="utf-8") as fh:
                fh.write(report)
        except OSError as exc:
            raise ConfigError(f"cannot write report to {cfg.output_path}: {exc}") from exc
    else:
        sys.stdout.write(report)
    return status


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = build_config(argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return run(cfg)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PointBetheError as exc:
        print(f"degenerate input: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
