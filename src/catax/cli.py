"""Command-line front end: load a table, analyze, emit reports and maps.

Exit codes: 0 success, 1 parse/validation failure or an unreadable input or
unwritable map file, 2 numerical failure.
A residual exhausted below the requested number of dimensions is a warning,
not an error.  Every warning is a `logging` record under the ``catax``
logger; for the length of a `run` a handler prints each one to stderr as
``warning: <message>``, and the ``catax`` logger does not pass it on to the
root logger, so a host's own logging configuration does not print it again.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .ca import ca_decompose
from .contingency import (
    COLS,
    ROWS,
    InvalidTableError,
    build_model,
    load_table,
    sparsity,
)
from .decomposition import numerical_rank
from .distortion import (
    DEFAULT_REL_TOL,
    distortion_report,
    intrinsic_dimension_bounds,
    tca_total_dispersion,
)
from .report import emit_report, report_to_dict
from .svgmap import emit_map
from .tca import _STRATEGIES, tca_decompose

__all__ = ["AnalysisConfig", "build_parser", "run", "main"]

logger = logging.getLogger(__name__)

_METHODS = ("ca", "tca", "both")
_AXES = (ROWS, COLS, "both")
_FORMATS = ("tsv", "json")


@dataclass(frozen=True)
class AnalysisConfig:
    """Validated bundle of one analysis run's settings."""

    input_path: str
    method: str = "both"
    dims: int = 3
    axis: str = "rows"
    tca_strategy: str = "auto"
    restarts: int = 20
    seed: int = 0
    rel_tol: float = DEFAULT_REL_TOL
    drop_empty: bool = False
    output_format: str = "tsv"
    map_path: str | None = None
    map_axes: tuple[int, int] = (1, 2)
    delimiter: str | None = None

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        if self.axis not in _AXES:
            raise ValueError(f"axis must be one of {_AXES}, got {self.axis!r}")
        if self.tca_strategy not in _STRATEGIES:
            raise ValueError(
                f"tca-strategy must be one of {_STRATEGIES}, got {self.tca_strategy!r}"
            )
        if self.output_format not in _FORMATS:
            raise ValueError(f"format must be one of {_FORMATS}, got {self.output_format!r}")
        if self.dims < 1:
            raise ValueError("dims must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise ValueError("rel-tol must be a finite number > 0")
        axes = tuple(int(a) for a in self.map_axes)
        if len(axes) != 2 or min(axes) < 1:
            raise ValueError("map-axes must be two positive axis numbers")
        if axes[0] == axes[1]:
            raise ValueError("the two map axes must differ")
        # no decomposition has more than dims axes; the default axes allow --dims 1
        if self.map_path is not None and max(axes) > self.dims:
            raise ValueError(f"map axis {max(axes)} exceeds dims {self.dims}")
        object.__setattr__(self, "map_axes", axes)


def run(config: AnalysisConfig) -> int:
    """Execute one analysis; report to stdout, diagnostics to stderr."""
    # the stderr of this call, so that a caller's redirection captures it
    notices = logging.StreamHandler(sys.stderr)
    notices.setFormatter(logging.Formatter("warning: %(message)s"))
    package = logging.getLogger("catax")
    package.addHandler(notices)
    propagate, package.propagate = package.propagate, False  # printed once, here
    try:
        if config.map_path is not None:
            # fail before the analysis, not after it, when the map cannot be written there
            folder = os.path.dirname(config.map_path) or os.curdir
            if not os.path.isdir(folder):
                raise FileNotFoundError(f"map directory {folder!r} does not exist")
        table = load_table(
            config.input_path, drop_empty=config.drop_empty, delimiter=config.delimiter
        )
        spar = sparsity(table)
        model = build_model(table)
        del table  # the counts, as large as P, need not outlive the model
        rank = numerical_rank(model)
        n_dims = min(config.dims, rank)
        if rank == 0:
            logger.warning("residual rank is 0 (independence table); nothing to decompose")
        elif n_dims < config.dims:
            logger.warning("requested dims %d exceeds rank %d; using %d", config.dims, rank, n_dims)
        axes = [ROWS, COLS] if config.axis == "both" else [config.axis]
        methods = ["ca", "tca"] if config.method == "both" else [config.method]

        blocks: list[tuple] = []
        map_dec = None
        for method in methods:
            if method == "ca":
                dec = ca_decompose(model, k=n_dims)
            else:
                dec = tca_decompose(
                    model,
                    k=n_dims,
                    strategy=config.tca_strategy,
                    restarts=config.restarts,
                    seed=config.seed,
                )
            if dec.k == 0:  # rank 0, or the residual ran out at once (TCA logged it)
                continue
            bounds = None
            if method == "tca":
                bounds = intrinsic_dimension_bounds(dec.deltas, tca_total_dispersion(model))
            if map_dec is None or method == "tca":
                map_dec = dec
            for axis in axes:
                report = distortion_report(model, dec, axis, range(1, dec.k + 1), config.rel_tol)
                blocks.append((report, bounds))
        if config.map_path is not None:
            if map_dec is None:
                raise ValueError("no axes extracted; cannot draw a factor map")
            emit_map(map_dec, config.map_axes, config.map_path)
    except (OSError, ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # bad input or an unwritable map; the rest, numerical failures
        return 1 if isinstance(exc, (InvalidTableError, OSError)) else 2
    finally:
        package.removeHandler(notices)
        package.propagate = propagate

    _emit(config, spar, blocks)
    return 0


def _emit(config: AnalysisConfig, spar: float, blocks: list[tuple]) -> None:
    if config.output_format == "json":
        document = {
            "sparsity": spar,
            "reports": [report_to_dict(report, bounds) for report, bounds in blocks],
        }
        sys.stdout.write(json.dumps(document, indent=2) + "\n")
        return
    parts = [f"# sparsity={spar:.7f}\n"]
    parts.extend(emit_report(report, bounds) for report, bounds in blocks)
    sys.stdout.write("\n".join(parts))


def _axes_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    try:
        a, b = (int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected two comma-separated axis numbers, e.g. 1,2"
        ) from None
    return a, b


class _Parser(argparse.ArgumentParser):
    # Argument problems are validation failures: exit 1, not argparse's 2.
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    """Parser of the ``analyze`` flags.

    An absent flag is absent from the namespace, so `AnalysisConfig` supplies
    its default.
    """
    parser = _Parser(
        prog="analyze",
        description=(
            "Correspondence analysis (CA) and taxicab correspondence analysis (TCA) "
            "of a contingency table, with per-point embedding-distortion reports "
            "and TCA intrinsic-dimension bounds."
        ),
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--input", dest="input_path", required=True, help="contingency table (CSV/TSV)")
    parser.add_argument("--method", choices=_METHODS)
    parser.add_argument("--dims", type=int,
                        help=f"max embedding dimension (default {AnalysisConfig.dims})")
    parser.add_argument("--axis", choices=_AXES)
    parser.add_argument("--tca-strategy", dest="tca_strategy", choices=_STRATEGIES)
    parser.add_argument("--restarts", type=int, help="random restarts of the iterative solver")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--rel-tol", dest="rel_tol", type=float, help="relative isometry tolerance")
    parser.add_argument("--drop-empty", dest="drop_empty", action="store_true",
                        help="drop all-zero rows/columns instead of failing")
    parser.add_argument("--format", dest="output_format", choices=_FORMATS)
    parser.add_argument("--map", dest="map_path", help="write an SVG factor map here")
    parser.add_argument("--map-axes", dest="map_axes", type=_axes_pair,
                        help="axis pair for the map (default %d,%d)" % AnalysisConfig.map_axes)
    parser.add_argument("--delimiter", help="field separator (default: auto-detect)")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` parses with, built once per process on first use:
    building one takes a few tenths of a millisecond, a tenth or so of the
    whole analysis of a small table."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    namespace = _parser().parse_args(argv)
    try:
        config = AnalysisConfig(**vars(namespace))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
