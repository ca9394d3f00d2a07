"""Reproduction of *Using Generative Design Patterns to Develop Network
Server Applications* (Guo, Schaeffer, Szafron, Earl — IPPS 2005).

The package is organised around the paper's three layers:

``repro.co2p3s``
    The generative design-pattern engine and the N-Server pattern
    template.  ``generate_nserver(options, dest)`` emits a custom
    event-driven server framework as plain Python source.

``repro.runtime``, ``repro.cache``, ``repro.http``, ``repro.ftp``
    The library substrate the generated frameworks import: Reactor /
    Proactor machinery, file caching, protocol libraries.

``repro.sim``, ``repro.workload``, ``repro.analysis``
    The evaluation testbed: a discrete-event simulator standing in for
    the paper's Sun/Ethernet hardware, SpecWeb99-like workloads, and the
    metrics (throughput, Jain fairness, response time) the paper reports.

See ``DESIGN.md`` for the full system inventory and ``EXPERIMENTS.md``
for paper-vs-measured results for every table and figure.

The library façades (``repro.runtime``, ``repro.obs``, ``repro.cache``,
…) are lazy (:func:`lazy_exports`): importing one loads no submodule
until one of its names is used, so a generated server loads only the
modules its options reach.
"""

import importlib

__version__ = "1.0.0"

__all__ = ["__version__", "lazy_exports"]


def lazy_exports(package, namespace, table):
    """PEP 562 re-exports for a package ``__init__``: import on first use.

    ``table`` maps a submodule name (relative to ``package``) to the
    public names it provides.  Returns ``(__getattr__, __dir__,
    __all__)`` for the package to bind at module level::

        __getattr__, __dir__, __all__ = lazy_exports(
            __name__, globals(), {"cache": ("FileCache",)})

    ``__getattr__`` imports the owning submodule the first time a name
    is read and caches the value in ``namespace`` (the package's
    globals), so later reads are plain attribute hits.  A name not in
    the table raises ``AttributeError``, which is what lets ``from
    package import submodule`` fall through to importing the submodule.
    ``from package import *`` resolves every name in ``__all__``.
    """
    owners = {name: f"{package}.{module}"
              for module, names in table.items() for name in names}

    def __getattr__(name):
        owner = owners.get(name)
        if owner is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(owner), name)
        return value

    def __dir__():
        return sorted(namespace.keys() | owners.keys())

    return __getattr__, __dir__, sorted(owners)
