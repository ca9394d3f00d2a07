"""The N-Server pattern template.

``NServerTemplate`` assembles the module specs into a
:class:`~repro.co2p3s.codegen.CodeGenerator` and adds the template-level
constraint checks (some option combinations make no sense — e.g. event
scheduling needs an Event Processor to hold the priority queue).

Typical use::

    from repro.co2p3s.nserver import NSERVER, COPS_HTTP_OPTIONS
    opts = NSERVER.configure(COPS_HTTP_OPTIONS)
    report = NSERVER.generate(opts, dest="/tmp/build", package="cops_http_fw")
    fw = load_generated_package("/tmp/build", "cops_http_fw")
    server = fw.Server(hooks=MyHooks())
"""

from __future__ import annotations

from typing import Sequence

from repro.co2p3s.codegen import CodeGenerator
from repro.co2p3s.options import OptionError, OptionSet, OptionSpec
from repro.co2p3s.template import PatternTemplate, register_template
from repro.co2p3s.nserver.context import build_context
from repro.co2p3s.nserver.mod_communication import MODULE_COMMUNICATION
from repro.co2p3s.nserver.mod_degradation import MODULE_DEGRADATION
from repro.co2p3s.nserver.mod_deployment import MODULE_DEPLOYMENT
from repro.co2p3s.nserver.mod_handlers import MODULE_HANDLERS
from repro.co2p3s.nserver.mod_observability import MODULE_OBSERVABILITY
from repro.co2p3s.nserver.mod_processing import MODULE_CACHE, MODULE_PROCESSING
from repro.co2p3s.nserver.mod_reactor import MODULE_REACTOR, MODULE_SERVER
from repro.co2p3s.nserver.mod_resilience import MODULE_RESILIENCE
from repro.co2p3s.nserver.options import NSERVER_OPTION_SPECS

__all__ = ["NServerTemplate", "NSERVER", "NSERVER_MODULES"]

HEADER = (
    '# Generated by the CO2P3S N-Server pattern template. Do not edit:\n'
    '# regenerate with different option settings instead.\n'
)

NSERVER_MODULES = (
    MODULE_HANDLERS,
    MODULE_PROCESSING,
    MODULE_CACHE,
    MODULE_OBSERVABILITY,
    MODULE_RESILIENCE,
    MODULE_DEGRADATION,
    MODULE_COMMUNICATION,
    MODULE_REACTOR,
    MODULE_DEPLOYMENT,
    MODULE_SERVER,
)


def _build_init(opts: OptionSet, module_names) -> str:
    lines = [
        '"""Generated N-Server framework package."""',
        "",
        "from $pkg.communication import (ClientConfiguration,",
        "                                ServerConfiguration)",
        "from $pkg.server import Server",
        "from repro.runtime import CLOSE, PENDING, ServerHooks",
        "",
        '__all__ = ["CLOSE", "ClientConfiguration", "PENDING", "Server",',
        '           "ServerConfiguration", "ServerHooks"]',
        "",
        f"GENERATED_OPTIONS = {opts.as_dict()!r}",
        "",
    ]
    return "\n".join(lines)


class NServerTemplate(PatternTemplate):
    """The Network Server design pattern template (the paper's
    contribution)."""

    name = "n-server"
    description = ("Event-driven network server framework generator: "
                   "Reactor + Proactor emulation + Acceptor-Connector, "
                   "with file caching, event scheduling, overload control "
                   "and more as template options (Table 1).")

    def option_specs(self) -> Sequence[OptionSpec]:
        return NSERVER_OPTION_SPECS

    def validate(self, opts: OptionSet) -> None:
        if opts["O8"] and not opts["O2"]:
            raise OptionError(
                "O8 (event scheduling) replaces the Event Processor's queue "
                "with a priority queue and therefore requires O2 (separate "
                "thread pool)")
        if opts["O9"] and not opts["O2"]:
            raise OptionError(
                "O9 (overload control) watches the Event Processor's queue "
                "and therefore requires O2 (separate thread pool)")
        if opts["O5"] == "Dynamic" and not opts["O2"]:
            raise OptionError(
                "O5=Dynamic allocates Event Processor threads and therefore "
                "requires O2 (separate thread pool)")
        if opts["O17"] and not opts["O9"]:
            raise OptionError(
                "O17 (degradation policy) turns overload decisions into "
                "explicit shedding and therefore requires O9 (overload "
                "control)")

    def build_generator(self) -> CodeGenerator:
        def init_builder(opts: OptionSet, module_names) -> str:
            # ``$pkg`` cannot go through the fragment pipeline here (the
            # init is built after modules), so substitute directly.
            return _build_init(opts, module_names)

        return CodeGenerator(
            modules=NSERVER_MODULES,
            context_builder=build_context,
            init_builder=init_builder,
            header=HEADER,
        )

    def render(self, opts: OptionSet, package: str = "generated"):
        report = super().render(opts, package)
        report.files["__init__.py"] = report.files["__init__.py"].replace(
            "$pkg", package)
        return report

    def generate(self, opts: OptionSet, dest: str, package: str = "generated"):
        import os

        report = self.render(opts, package)
        pkg_dir = os.path.join(dest, package)
        os.makedirs(pkg_dir, exist_ok=True)
        report.dest = pkg_dir
        for filename, text in report.files.items():
            with open(os.path.join(pkg_dir, filename), "w") as fh:
                fh.write(text)
        return report


#: the registered singleton most callers use
NSERVER = register_template(NServerTemplate())
