"""``python -m repro.conform`` — the conformance sweep CLI.

Replays the seeded session set (directed error-surface sessions plus
random Zipf traffic) against every option-matrix corner and judges the
response streams against the executable model.  Divergences suppressed
in ``conform-baseline.toml`` are *explained*; anything else fails the
run, and the first unexplained divergence's session is shrunk to a
1-minimal reproducer and printed.

* ``--corners smoke`` (default): the PR gate corner set.
* ``--corners full``: adds the combination corners and quadruples the
  random session count — allowed to be slower, runs on main.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import tempfile
from typing import List, Optional

from repro.lint.baseline import Baseline, find_baseline, load_baseline

from repro.conform.checker import (
    DEFAULT_FILES,
    DEFAULT_PATHS,
    Corner,
    Divergence,
    _build_corner_server,
    check_session,
    corner_matrix,
    replay_session,
    run_corner,
    shrink_session,
)
from repro.conform.model import ModelVFS
from repro.conform.sessions import Session, directed_sessions, \
    generate_sessions

CONFORM_BASELINE = "conform-baseline.toml"


def _resolve_baseline(args) -> Optional[Baseline]:
    if args.no_baseline:
        return None
    if args.baseline:
        return load_baseline(args.baseline)
    return find_baseline(name=CONFORM_BASELINE)


def _apply_baseline(divergences: List[Divergence],
                    baseline: Optional[Baseline]) -> None:
    if baseline is None:
        return
    for divergence in divergences:
        divergence.suppressed = baseline.reason_for(divergence.ident)


def _shrink_and_describe(corner: Corner, divergence: Divergence,
                         sessions: List[Session]) -> str:
    """Shrink the failing session to a 1-minimal reproducer against a
    fresh server for the same corner (fresh package name, so the
    original's generated module is left alone)."""
    session = next((s for s in sessions if s.name == divergence.session),
                   None)
    if session is None:
        return "(session not in the replayed set; no shrink)"
    shrink_corner = dataclasses.replace(corner, name=f"{corner.name}-shrink")
    vfs = ModelVFS(DEFAULT_FILES)
    with tempfile.TemporaryDirectory(prefix="conform_shrink_") as workdir:
        server, _plane = _build_corner_server(shrink_corner, workdir,
                                              DEFAULT_FILES)
        server.start()
        try:
            def failing(candidate: Session) -> bool:
                stream = replay_session("127.0.0.1", server.port, candidate)
                found = check_session(candidate, stream, vfs, corner.model,
                                      corner.freedoms, corner.name)
                return any(d.kind == divergence.kind for d in found)

            minimal = shrink_session(session, failing)
        finally:
            server.stop()
    return minimal.describe()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.conform",
        description="model-based conformance sweep across the "
                    "N-Server option matrix")
    parser.add_argument("--corners", choices=("smoke", "full"),
                        default="smoke",
                        help="corner set: smoke = the PR gate (default)")
    parser.add_argument("--corner", action="append", dest="only",
                        metavar="NAME",
                        help="run only the named corner(s)")
    parser.add_argument("--seed", type=int, default=2005,
                        help="session-generator seed (default 2005)")
    parser.add_argument("--sessions", type=int, default=None,
                        help="random sessions per corner on top of the "
                             "directed set (default 12 smoke / 48 full)")
    parser.add_argument("--baseline",
                        help=f"explicit {CONFORM_BASELINE} path")
    parser.add_argument("--no-baseline", action="store_true",
                        help="report every divergence, suppressing nothing")
    parser.add_argument("--no-shrink", action="store_true",
                        help="skip shrinking the first unexplained failure")
    parser.add_argument("--verbose", "-v", action="store_true",
                        help="list suppressed divergences and corner detail")
    args = parser.parse_args(argv)

    baseline = _resolve_baseline(args)
    corners = corner_matrix(args.corners)
    if args.only:
        corners = [c for c in corners if c.name in set(args.only)]
        if not corners:
            parser.error(f"no corner named {args.only}")
    count = args.sessions if args.sessions is not None else (
        48 if args.corners == "full" else 12)
    sessions = directed_sessions(DEFAULT_PATHS) + generate_sessions(
        args.seed, DEFAULT_PATHS, count)

    print(f"conformance sweep: {len(corners)} corner(s), "
          f"{len(sessions)} session(s), seed {args.seed}")
    unexplained: List[Divergence] = []
    explained = 0
    first_failure = None
    for corner in corners:
        result = run_corner(corner, sessions)
        _apply_baseline(result.divergences, baseline)
        live = [d for d in result.divergences if d.suppressed is None]
        quiet = [d for d in result.divergences if d.suppressed is not None]
        explained += len(quiet)
        unexplained.extend(live)
        status = "ok" if not live else f"{len(live)} DIVERGENT"
        print(f"  {corner.name:<18} {result.exchanges:>4} exchanges  "
              f"{status}")
        if args.verbose:
            print(f"      {corner.description}")
            for divergence in quiet:
                print(f"      suppressed {divergence.ident}: "
                      f"{divergence.suppressed}")
        for divergence in live:
            print(f"      {divergence.ident}")
            print(f"        {divergence.detail}")
            if first_failure is None:
                first_failure = (corner, divergence)

    print(f"\n{len(unexplained)} unexplained divergence(s), "
          f"{explained} explained by "
          f"{baseline.path if baseline else 'no baseline'}")
    if first_failure is not None and not args.no_shrink:
        corner, divergence = first_failure
        print(f"\nshrinking {divergence.session} ({divergence.kind}) "
              f"on corner {corner.name}:")
        print(_shrink_and_describe(corner, divergence, sessions))
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
