"""Command-line interface to the CO2P3S template engine.

The CO2P3S system drove template instantiation from a GUI; this CLI is
the batch equivalent:

    python -m repro.co2p3s list
    python -m repro.co2p3s options n-server
    python -m repro.co2p3s generate n-server --set O6=LRU --set O4=Asynchronous \
        --dest build --package my_fw
    python -m repro.co2p3s generate n-server --preset cops-http --dest build
    python -m repro.co2p3s crosscut n-server
"""

from __future__ import annotations

import argparse
import sys

from repro.co2p3s.crosscut import empirical_matrix, format_matrix
from repro.co2p3s.template import available_templates, get_template

# Importing registers the N-Server template.
from repro.co2p3s.nserver import (  # noqa: F401  (registration side effect)
    ALL_FEATURES_ON,
    COPS_FTP_OPTIONS,
    COPS_HTTP_OPTIONS,
    NSERVER,
    POOL_TOGGLE_BASE,
)

PRESETS = {
    "cops-http": COPS_HTTP_OPTIONS,
    "cops-ftp": COPS_FTP_OPTIONS,
    "all-on": ALL_FEATURES_ON,
}


def _coerce(value: str):
    lowered = value.lower()
    if lowered in ("yes", "true"):
        return True
    if lowered in ("no", "false"):
        return False
    if lowered in ("none", "null"):
        return None
    try:
        return int(value)
    except ValueError:
        return value


def cmd_list(_args) -> int:
    for name, description in sorted(available_templates().items()):
        print(f"{name}: {description}")
    return 0


def cmd_options(args) -> int:
    template = get_template(args.template)
    for spec in template.option_specs():
        print(f"{spec.key:5s} {spec.name:<44s} "
              f"[{spec.describe_values}] default={spec.default!r}")
    return 0


def cmd_generate(args) -> int:
    template = get_template(args.template)
    values = dict(PRESETS[args.preset]) if args.preset else {}
    for assignment in args.set or []:
        key, _, raw = assignment.partition("=")
        if not _:
            print(f"error: --set needs KEY=VALUE, got {assignment!r}",
                  file=sys.stderr)
            return 2
        values[key] = _coerce(raw)
    opts = template.configure(values)
    report = template.generate(opts, args.dest, package=args.package)
    print(f"generated {len(report.files)} files, {len(report.classes)} "
          f"classes, {report.total_lines} lines -> {report.dest}")
    return 0


def cmd_crosscut(args) -> int:
    template = get_template(args.template)
    extra = ((POOL_TOGGLE_BASE,) if args.template == "n-server" else ())
    base = ALL_FEATURES_ON if args.template == "n-server" else None
    matrix = empirical_matrix(template, base, extra_bases=extra)
    print(format_matrix(matrix, title=f"Crosscut matrix for {args.template}"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.co2p3s",
        description="CO2P3S generative design pattern templates")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available templates")

    p_options = sub.add_parser("options", help="show a template's options")
    p_options.add_argument("template")

    p_gen = sub.add_parser("generate", help="generate a framework package")
    p_gen.add_argument("template")
    p_gen.add_argument("--preset", choices=sorted(PRESETS),
                       help="start from a named option column of Table 1")
    p_gen.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one option (repeatable)")
    p_gen.add_argument("--dest", default="build")
    p_gen.add_argument("--package", default="generated")

    p_x = sub.add_parser("crosscut",
                         help="print the empirical option x class matrix")
    p_x.add_argument("template")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "list": cmd_list,
        "options": cmd_options,
        "generate": cmd_generate,
        "crosscut": cmd_crosscut,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
