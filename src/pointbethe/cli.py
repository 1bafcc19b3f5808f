"""Command-line front end.

Subcommands: scatter, yb-check, scan, coeffs, eigen, gauge.  Every flag can
also be supplied through a config file (``--config``) holding one
``key = value`` pair per line with ``#`` comments; flags override file
values.  Reports are plain UTF-8 with the resolved configuration echoed in
``# key = value`` header lines followed by human-readable summary lines and
machine-readable CSV blocks.  Identical configuration and seed produce
byte-identical reports.

Exit status: 0 all residuals within tolerance, 1 configuration error,
2 residual failure, 3 pole or degenerate input.

--tol (default 1e-8) bounds the amplitude deviation from the oracle
relative to max(1, |S_T^+|, |S_R^+|) for scatter, and absolute max-norm
residuals for yb-check, coeffs, eigen and gauge.  scan echoes it but
classifies against the fixed PASS_TOL 1e-8 and FAIL_FLOOR 1e-3.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .bethe import bethe_state, coefficients_bc_oracle, state_relation_residual
from .couplings import CouplingParameters, gauge_data
from .errors import PointBetheError
from .factorization import (FAIL_FLOOR, GridSpec, block_reduction_check,
                            scan_couplings, scan_to_csv,
                            yang_baxter_matrix_check)
from .scattering import amplitudes, amplitudes_bvp_oracle
from .wavefunction import (FD_STEP, boundary_residual, boundary_samples,
                           closest_gap, evaluate_grid, gauge_transformed_state,
                           schrodinger_fd_residual)

COMMANDS = ("scatter", "yb-check", "scan", "coeffs", "eigen", "gauge")
MAX_N = 6  # N! matrix guard

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

    def resolved_n(self) -> int:
        n = self.n_particles
        if self.momenta is not None:
            if n is not None and n != len(self.momenta):
                raise ConfigError(f"field N: {n} contradicts {len(self.momenta)} momenta")
            n = len(self.momenta)
        if n is None:
            raise ConfigError("field N: required (or derive it from k)")
        if not 1 <= n <= MAX_N:
            raise ConfigError(f"field N: must be between 1 and {MAX_N}, got {n}")
        return n

    def resolved_momenta(self, n: int) -> np.ndarray:
        if self.momenta is not None:
            return np.array(self.momenta, dtype=np.float64)
        if n == 1:
            return np.array([1.0])
        # deterministic default: jittered even spread, gaps stay > 0.5
        rng = np.random.default_rng(self.seed)
        return np.linspace(1.5, -1.5, n) + rng.uniform(-0.05, 0.05, n)

    def header(self) -> list[str]:
        out = [f"# command = {self.command}"]
        for key, vals in (("c", self.c), ("lambda", self.lam),
                          ("gamma", self.gamma), ("eta", self.eta)):
            out.append(f"# {key} = {','.join(f'{v:.17g}' for v in vals)}")
        if self.n_particles is not None or self.momenta is not None:
            out.append(f"# N = {self.resolved_n()}")
        if self.momenta is not None:
            out.append(f"# k = {','.join(f'{v:.17g}' for v in self.momenta)}")
        out.append(f"# seed = {self.seed}")
        # the output path is deliberately not echoed: reports must be
        # byte-identical for identical config + seed wherever they land
        out.append(f"# tol = {self.tolerance:.17g}")
        return out


def _parse_float_list(text: str, key: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(v) for v in text.split(",") if v.strip() != "")
    except ValueError as exc:
        raise ConfigError(f"field {key}: cannot parse {text!r} as numbers") from exc
    if not vals:
        raise ConfigError(f"field {key}: empty value")
    return vals


def parse_config_file(path: str) -> dict[str, str]:
    known = {"command", "c", "lambda", "gamma", "eta", "N", "k", "seed", "tol", "out"}
    values: dict[str, str] = {}
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
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown field {key!r}")
        values[key] = value.strip()
    return values


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's default exit code 2 collides with ours
        raise ConfigError(message)


def build_config(argv: list[str]) -> RunConfig:
    parser = _Parser(prog="pointbethe", add_help=True, description=__doc__)
    parser.add_argument("command", nargs="?", choices=COMMANDS)
    parser.add_argument("--config", default=None)
    parser.add_argument("--c", default=None)
    parser.add_argument("--lambda", dest="lam", default=None)
    parser.add_argument("--gamma", default=None)
    parser.add_argument("--eta", default=None)
    parser.add_argument("--N", dest="n_particles", type=int, default=None)
    parser.add_argument("--k", default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--tol", type=float, default=None,
                        help="relative bound for scatter, absolute for yb-check, coeffs, "
                             "eigen, gauge; ignored by scan (see above)")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    file_values = parse_config_file(args.config) if args.config else {}

    command = args.command or file_values.get("command")
    if command not in COMMANDS:
        raise ConfigError(f"field command: need one of {COMMANDS}, got {command!r}")

    def pick(flag_value, key):
        return flag_value if flag_value is not None else file_values.get(key)

    cfg = RunConfig(command=command)
    for attr, key in (("c", "c"), ("lam", "lambda"), ("gamma", "gamma"), ("eta", "eta")):
        raw = pick(getattr(args, attr), key)
        if raw is not None:
            setattr(cfg, attr, _parse_float_list(str(raw), key))
    raw_n = pick(args.n_particles, "N")
    if raw_n is not None:
        try:
            cfg.n_particles = int(raw_n)
        except ValueError as exc:
            raise ConfigError(f"field N: cannot parse {raw_n!r}") from exc
    raw_k = pick(args.k, "k")
    if raw_k is not None:
        cfg.momenta = _parse_float_list(str(raw_k), "k")
    raw_seed = pick(args.seed, "seed")
    if raw_seed is not None:
        try:
            cfg.seed = int(raw_seed)
        except ValueError as exc:
            raise ConfigError(f"field seed: cannot parse {raw_seed!r}") from exc
    raw_tol = pick(args.tol, "tol")
    if raw_tol is not None:
        try:
            cfg.tolerance = float(raw_tol)
        except ValueError as exc:
            raise ConfigError(f"field tol: cannot parse {raw_tol!r}") from exc
        if not (math.isfinite(cfg.tolerance) and cfg.tolerance > 0):
            raise ConfigError(f"field tol: must be finite and > 0, got {raw_tol!r}")
    cfg.output_path = pick(args.out, "out")
    return cfg


# ---------------------------------------------------------------------------
# command bodies: each appends report lines to cfg.lines and returns a status


def _worst(*residuals: float) -> float:
    """The largest residual, NaN if any is NaN: Python's max(0.0, nan) is
    0.0, which would pass a NaN residual as zero."""
    return float(np.max(residuals))


def _unit_identity_vector(n: int) -> np.ndarray:
    a = np.zeros(math.factorial(n), dtype=np.complex128)
    a[0] = 1.0  # single incident wave in the identity wedge
    return a


def _amplitude_csv_row(u, amp):
    parts = [f"{u:.17g}"]
    for z in (amp.s_t_plus, amp.s_r_plus, amp.s_t_minus, amp.s_r_minus):
        parts.append(f"{z.real:.17g}")
        parts.append(f"{z.imag:.17g}")
    return ",".join(parts)


def run_scatter(cfg: RunConfig) -> int:
    params = cfg.scalar_params()
    if cfg.momenta is not None:
        u_grid = np.array(cfg.momenta, dtype=np.float64)
    else:
        u_grid = np.linspace(-5.0, 5.0, 40)
    cfg.lines.append("u,re_st_plus,im_st_plus,re_sr_plus,im_sr_plus,"
                     "re_st_minus,im_st_minus,re_sr_minus,im_sr_minus")
    worst = 0.0
    for u in u_grid:
        amp = amplitudes(params, float(u))
        cfg.lines.append(_amplitude_csv_row(u, amp))
        if abs(u) < 1e-9:
            continue  # oracle needs distinct momenta
        oracle = amplitudes_bvp_oracle(params, float(u), 0.0)
        scale = max(1.0, abs(amp.s_t_plus), abs(amp.s_r_plus))
        worst = _worst(worst,
                       abs(amp.s_t_plus - oracle.s_t_plus) / scale,
                       abs(amp.s_r_plus - oracle.s_r_plus) / scale,
                       abs(amp.s_t_minus - oracle.s_t_minus) / scale,
                       abs(amp.s_r_minus - oracle.s_r_minus) / scale)
    cfg.lines.append(f"closed form vs boundary-value oracle: max rel deviation = {worst:.3e}")
    return EXIT_OK if worst <= cfg.tolerance else EXIT_RESIDUAL


def run_yb_check(cfg: RunConfig) -> int:
    params = cfg.scalar_params()
    n = cfg.n_particles if cfg.n_particles is not None else 3
    if not 2 <= n <= MAX_N:
        raise ConfigError(f"field N: yb-check needs 2 <= N <= {MAX_N}")
    panel = _kernels.sample_panel(cfg.seed, 100)
    report = yang_baxter_matrix_check(params, n, panel)
    cfg.lines.append(f"unitarity residual: {report.unitarity:.3e}")
    cfg.lines.append(f"braid residual:     {report.braid:.3e}")
    cfg.lines.append(f"commute residual:   {report.commute:.3e}")
    worst = _worst(report.unitarity, report.braid, report.commute)
    if n >= 4:
        block = _worst(*(block_reduction_check(params, n, i, float(u), float(v))
                         for i in range(1, n - 1) for u, v in panel[:5]))
        cfg.lines.append(f"block-reduction deviation: {block:.3e}")
        worst = _worst(worst, block)
    cfg.lines.append(f"max residual = {worst:.3e} (tol {cfg.tolerance:.3g})")
    return EXIT_OK if worst <= cfg.tolerance else EXIT_RESIDUAL


def run_scan(cfg: RunConfig) -> int:
    grid = GridSpec(c_values=cfg.c, lam_values=cfg.lam,
                    gamma_values=cfg.gamma, eta_values=cfg.eta, seed=cfg.seed)
    rows = scan_couplings(grid)
    cfg.lines.extend(scan_to_csv(rows).rstrip("\n").split("\n"))
    bad = [r for r in rows if not r.consistent]
    cfg.lines.append(f"grid points: {len(rows)}, inconsistent classifications: {len(bad)}")
    return EXIT_OK if not bad else EXIT_RESIDUAL


def run_coeffs(cfg: RunConfig) -> int:
    params = cfg.scalar_params()
    n = cfg.resolved_n()
    k = cfg.resolved_momenta(n)
    state = bethe_state(params, k, _unit_identity_vector(n))
    relation = state_relation_residual(state)
    cfg.lines.append("p_rank,q_rank,re_a,im_a")
    for p_idx in range(state.table.shape[0]):
        for q_idx in range(state.table.shape[1]):
            z = state.table[p_idx, q_idx]
            cfg.lines.append(f"{p_idx + 1},{q_idx + 1},{z.real:.17g},{z.imag:.17g}")
    cfg.lines.append(f"pairwise relation residual: {relation:.3e}")
    worst = relation
    if n <= 4:
        oracle = coefficients_bc_oracle(params, k, state.table[:, 0])
        cfg.lines.append(f"boundary-system residual: {oracle.residual:.3e}")
        cfg.lines.append(f"solution-space dimension: {oracle.nullity} (expected {oracle.expected_nullity})")
        worst = _worst(worst, oracle.residual)
    cfg.lines.append(f"max residual = {worst:.3e} (tol {cfg.tolerance:.3g})")
    return EXIT_OK if worst <= cfg.tolerance else EXIT_RESIDUAL


def run_eigen(cfg: RunConfig) -> int:
    params = cfg.scalar_params()
    n = cfg.resolved_n()
    k = cfg.resolved_momenta(n)
    state = bethe_state(params, k, _unit_identity_vector(n))
    rng = np.random.default_rng(cfg.seed)
    points = rng.uniform(-3.0, 3.0, (50, n))
    values = evaluate_grid(state, points)
    cfg.lines.append(",".join([f"x{j + 1}" for j in range(n)] + ["re_psi", "im_psi"]))
    for x, z in zip(points, values):
        coords = ",".join(f"{v:.17g}" for v in x)
        cfg.lines.append(f"{coords},{z.real:.17g},{z.imag:.17g}")
    worst = 0.0
    for j in range(1, n + 1):
        for kk in range(j + 1, n + 1):
            samples = boundary_samples(n, j, kk, rng, count=50)
            r1, r2 = boundary_residual(state, j, kk, samples)
            cfg.lines.append(f"boundary ({j},{kk}): residuals {r1:.3e} {r2:.3e}")
            worst = _worst(worst, r1, r2)
    # the stencil must not reach across a coincidence plane
    fd_points = points[closest_gap(points) > FD_STEP][:5]
    fd_residuals = [schrodinger_fd_residual(state, x) for x in fd_points]
    fd = _worst(*fd_residuals) if fd_residuals else math.nan
    cfg.lines.append(f"free-equation finite-difference residual: {fd:.3e}")
    cfg.lines.append(f"max boundary residual = {worst:.3e} (tol {cfg.tolerance:.3g})")
    return EXIT_OK if worst <= cfg.tolerance else EXIT_RESIDUAL


def run_gauge(cfg: RunConfig) -> int:
    params = cfg.scalar_params()
    n = cfg.resolved_n()
    k = cfg.resolved_momenta(n)
    gd = gauge_data(params)  # raises NotGaugeFamily for lam or gamma nonzero
    state = bethe_state(params, k, _unit_identity_vector(n))
    mapped = gauge_transformed_state(state)
    cfg.lines.append(f"alpha = {gd.alpha:.17g}")
    cfg.lines.append(f"c_tilde = {gd.c_tilde:.17g}")
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for j in range(1, n + 1):
        for kk in range(j + 1, n + 1):
            samples = boundary_samples(n, j, kk, rng, count=50)
            r1, r2 = boundary_residual(mapped, j, kk, samples)
            cfg.lines.append(f"delta-gas boundary ({j},{kk}): residuals {r1:.3e} {r2:.3e}")
            worst = _worst(worst, r1, r2)
    cfg.lines.append(f"max residual = {worst:.3e} (tol {cfg.tolerance:.3g})")
    return EXIT_OK if worst <= cfg.tolerance else EXIT_RESIDUAL


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
        with open(cfg.output_path, "w", encoding="utf-8") as fh:
            fh.write(report)
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
