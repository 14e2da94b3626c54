"""Batch experiment runner.

``mildito <suite>`` validates a configuration (JSON file, overridden by
flags whose names mirror the config keys), runs the requested
verification suite and writes ``report.csv`` plus ``summary.json`` into
the output directory.

Exit codes: 0 all checks passed, 1 some check failed, 2 invalid
configuration (the message names the violated hypothesis), 3 a simulated
path blew up (the message names the path index), 4 an internal fault
(the traceback is printed).

``validate`` calls the exponent hypotheses where they are written once,
in the gamma and nemytskii modules, with the values the suites will pass.

report.csv is byte-stable for a fixed (config, seed) regardless of
--workers; wall-clock timings therefore live in summary.json only,
under the "timings" key, which is excluded from that contract.
--workers (default: the usable cores) is the number of threads that
draw the ensembles' keyed normals; every step, and every BLAS call in
it, runs on the main thread.
"""

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import get_args

import numpy as np
import scipy

from . import __version__, gamma
from .nemytskii import FIELD_NAMES, DiffusionCoefficient, NemytskiiOperator, get_field
from .process import BlowUpError, usable_cores
from .suites import EMBEDDING_P, run_suite
from .testfunctions import TEST_FUNCTION_NAMES

SCHEMA_VERSION = 2

SUITE_NAMES = ("gamma", "nemytskii", "simulate", "ito", "dynkin", "weak", "all")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    suite: str = "all"
    N: int = 64
    K: int = 64
    J: int = 256
    M_t: int = 200
    T: float = 0.1
    t0: float = 0.0
    paths: int = 20_000
    seed: int = 0
    field: str = "tanh"
    phi: str = "squared_norm"
    p: float = 10.0
    q: float = 40.0
    r: float = 0.5
    beta: float = -0.5
    eps: float = 0.0
    delta: float | None = None
    stopping: str = "terminal"
    level: float = math.inf
    out: str = "."
    workers: int = dataclasses.field(default_factory=usable_cores)


# each key's type, read off the annotations (``float | None`` is float)
_KEY_TYPES = {f.name: next(t for t in (int, float, str) if t in (f.type, *get_args(f.type)))
              for f in dataclasses.fields(ExperimentConfig)}


def _coerce(name, value):
    """A flag's string or a file's JSON value as the key's type; as its flag
    would, a number key refuses booleans and an int key fractions."""
    if value is None:
        return None
    kind = _KEY_TYPES[name]
    fraction = kind is int and isinstance(value, float) and not value.is_integer()
    if (kind is not str and isinstance(value, bool)) or fraction:
        raise ConfigError(f"config key {name!r} must be {kind.__name__}, got {value!r}")
    return kind(value)


def load_config(path: str | None, overrides: dict) -> ExperimentConfig:
    cfg = ExperimentConfig()
    try:
        if path is not None:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            if not isinstance(data, dict):
                raise ConfigError("config file must hold a JSON object")
            fields = ExperimentConfig.__dataclass_fields__
            for key, value in data.items():
                if key not in fields:
                    raise ConfigError(f"unknown config key {key!r}")
                # null stands for the default only where the default is None
                if value is None and fields[key].default is not None:
                    raise ConfigError(f"config key {key!r} must not be null")
                setattr(cfg, key, _coerce(key, value))
        for key, value in overrides.items():
            if value is not None:
                setattr(cfg, key, _coerce(key, value))
    except (OSError, TypeError, ValueError) as exc:
        # unreadable files and malformed values are configuration errors
        raise ConfigError(str(exc)) from None
    return cfg


def validate(cfg: ExperimentConfig) -> None:
    """The CLI's own checks, then the modules' exponent hypotheses at the
    values the suites will pass (no Monte Carlo); each error names its check."""
    if cfg.suite not in SUITE_NAMES:
        raise ConfigError(f"unknown suite {cfg.suite!r}; choose from {SUITE_NAMES}")
    if cfg.N < 1 or cfg.K < 1 or cfg.J < 1 or cfg.M_t < 1:
        raise ConfigError("N, K, J, M_t must be positive")
    if cfg.suite in ("dynkin", "weak", "all") and cfg.N < 2:
        raise ConfigError(
            f"suite {cfg.suite!r} requires N >= 2: its shipped coordinate "
            f"functional reads modes 1 and 2, got N={cfg.N}")
    if not (math.isfinite(cfg.T) and math.isfinite(cfg.t0)):
        raise ConfigError(f"T and t0 must be finite, got T={cfg.T}, t0={cfg.t0}")
    if not cfg.T > cfg.t0:
        raise ConfigError(f"requires T > t0, got T={cfg.T}, t0={cfg.t0}")
    if cfg.paths < 2:
        raise ConfigError("paths must be >= 2")
    if cfg.workers < 1:
        raise ConfigError("workers must be >= 1")
    if cfg.field not in FIELD_NAMES:
        raise ConfigError(f"unknown field {cfg.field!r}; registry has {FIELD_NAMES}")
    if cfg.phi not in TEST_FUNCTION_NAMES:
        raise ConfigError(
            f"unknown test function {cfg.phi!r}; registry has {TEST_FUNCTION_NAMES}")
    if cfg.stopping not in ("terminal", "hitting"):
        raise ConfigError(f"unknown stopping rule {cfg.stopping!r}")
    if math.isnan(cfg.level):
        raise ConfigError("hitting level must be a number or inf, got nan")

    try:
        if cfg.suite in ("gamma", "all"):
            gamma.check_smoothing(cfg.r, cfg.p)
            gamma.iota_embedding(cfg.eps, cfg.beta, EMBEDDING_P)
            gamma.check_multiplication(cfg.beta, cfg.p)
        if cfg.suite in ("nemytskii", "all"):
            for name in FIELD_NAMES:
                NemytskiiOperator(get_field(name), cfg.p, cfg.q)
            DiffusionCoefficient(get_field(cfg.field), cfg.p, cfg.beta, cfg.delta,
                                 resolution=cfg.J)
    except gamma.HypothesisError as exc:
        raise ConfigError(str(exc)) from None


def write_path_csv(path, destination, regularized: bool = False) -> None:
    """Columnar debug export of a simulated path.

    Schema: header ``time,mode,coefficient``, one row per (node, mode)
    pair, 1-based mode indices, RFC-4180 quoting.  With ``regularized``
    the companion process is written instead of the states.
    """
    states = path.regularized if regularized else path.states
    if states is None:
        raise ValueError("path has no regularized companion; call regularize first")
    with open(destination, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(["time", "mode", "coefficient"])
        for i, t in enumerate(path.grid.nodes()):
            for n in range(states.shape[1]):
                writer.writerow([repr(float(t)), n + 1, repr(float(states[i, n]))])


def render_report(rows) -> bytes:
    """RFC-4180 CSV of the report rows, without the timing column."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(["suite", "check_id", "lhs", "rhs", "stderr", "tolerance",
                     "verdict"])
    for row in rows:
        writer.writerow([row.suite, row.check_id, repr(row.lhs), repr(row.rhs),
                         repr(row.stderr), repr(row.tolerance), row.verdict])
    return buf.getvalue().encode("utf-8")


def render_summary(cfg, rows) -> str:
    failed = sum(1 for row in rows if row.verdict != "pass")
    config = {k: ("inf" if isinstance(v, float) and math.isinf(v) else v)
              for k, v in dataclasses.asdict(cfg).items()}
    summary = {
        "schema_version": SCHEMA_VERSION,
        "config": config,
        "seed": cfg.seed,
        "totals": {"checks": len(rows), "passed": len(rows) - failed,
                   "failed": failed},
        "versions": {"mildito": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
        # timings are excluded from the byte-stability contract; a list in
        # row order, so a repeated check id keeps its own time
        "timings": [{"suite": row.suite, "check_id": row.check_id,
                     "wall_s": round(row.wall_time, 6)} for row in rows],
    }
    return json.dumps(summary, sort_keys=True, indent=2) + "\n"


def run(cfg: ExperimentConfig) -> int:
    validate(cfg)
    rows = run_suite(cfg.suite, cfg)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.csv").write_bytes(render_report(rows))
    (out_dir / "summary.json").write_text(render_summary(cfg, rows),
                                          encoding="utf-8")
    return 0 if all(row.verdict == "pass" for row in rows) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mildito",
        description="Run mild stochastic calculus verification suites.")
    parser.add_argument("suite", choices=SUITE_NAMES)
    parser.add_argument("--config", help="JSON config file; flags override it")
    for name, field_ in ExperimentConfig.__dataclass_fields__.items():
        if name == "suite":
            continue
        default = ("the usable cores, threads that draw the normals"
                   if name == "workers" else field_.default)
        parser.add_argument(f"--{name}", default=None,
                            help=f"config key {name} (default {default})")
    return parser


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    config_path = args.pop("config")
    suite = args.pop("suite")
    try:
        cfg = load_config(config_path, args)
        cfg.suite = suite
        return run(cfg)
    except (ConfigError, gamma.HypothesisError) as exc:
        print(f"mildito: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except BlowUpError as exc:
        print(f"mildito: {exc}", file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        print("mildito: internal error", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
