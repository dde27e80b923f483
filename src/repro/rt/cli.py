"""CLI for the real-network runtime: ``repro rt diff``.

``diff`` is the ``differential:realnet`` harness: seeded configs run
under both the discrete-event simulator and the UDP runtime, and the
structural / oracle / latency-anchor comparison of
:mod:`repro.audit.realnet` must come back clean; any divergence prints a
ready-to-paste seeded repro.  A single rt run is ``repro scenario
--engine rt``.
"""

from __future__ import annotations

import argparse
from pathlib import Path


def add_rt_parser(sub) -> None:
    """Register the ``rt`` subcommand on the root subparsers."""
    rt = sub.add_parser(
        "rt", help="real-network runtime (asyncio UDP on localhost)"
    )
    rt_sub = rt.add_subparsers(dest="rt_command", required=True)

    diff = rt_sub.add_parser(
        "diff", help="sim-vs-real differential conformance (realnet)"
    )
    diff.add_argument("--specs", type=int, default=5,
                      help="number of seeded configs to check")
    diff.add_argument("--seed", type=int, default=0)
    diff.add_argument("--time-scale", dest="time_scale", type=float,
                      default=0.05)
    diff.add_argument("--tolerance", type=float, default=None,
                      help="latency-anchor tolerance band in phi units")
    diff.add_argument("--out", type=str, default="",
                      help="directory for seeded repro .py files on "
                           "divergence")


def cmd_rt(args: argparse.Namespace) -> int:
    """``repro rt diff``, the only ``rt`` subcommand."""
    from repro.audit.realnet import (
        DEFAULT_TOLERANCE_PHI,
        realnet_repro_snippet,
        run_realnet_suite,
    )

    tolerance = (
        DEFAULT_TOLERANCE_PHI if args.tolerance is None else args.tolerance
    )
    result = run_realnet_suite(
        args.specs,
        seed=args.seed,
        time_scale=args.time_scale,
        tolerance_phi=tolerance,
        log=print,
    )
    out_dir = Path(args.out) if args.out else None
    for index, verdict in enumerate(result.failures):
        snippet = realnet_repro_snippet(verdict.spec, verdict.violations)
        print(f"--- realnet repro (seed {verdict.spec.seed}) ---")
        print(snippet)
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / f"repro_realnet_{verdict.spec.seed}.py"
            path.write_text(snippet, encoding="utf-8")
            print(f"written to {path}")
    status = "clean" if result.clean else (
        f"{len(result.failures)} divergent spec(s)"
    )
    print(f"realnet: {len(result.verdicts)} spec(s), {status}")
    return 0 if result.clean else 1
