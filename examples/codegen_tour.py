"""A tour of the generative mechanism: how options crosscut the code.

Generates the N-Server framework at different option settings and shows
(1) which classes exist only under certain options, (2) how one class's
code changes when a crosscutting option (debug mode) toggles, and (3)
the empirical Table 2 matrix.

Run:  python examples/codegen_tour.py
"""

import difflib

from repro.co2p3s.crosscut import empirical_matrix, format_matrix
from repro.co2p3s.nserver import (ALL_FEATURES_ON, DEPLOYMENT_TOGGLE_BASE,
                                  NSERVER, POOL_TOGGLE_BASE)


def main() -> None:
    base = NSERVER.configure(ALL_FEATURES_ON)

    # 1. Existence: O4=Synchronous removes the completion machinery.
    async_report = NSERVER.render(base, package="tour")
    sync_report = NSERVER.render(base.replace(O4="Synchronous"),
                                 package="tour")
    gone = set(async_report.class_names()) - set(sync_report.class_names())
    print("classes that exist only with O4=Asynchronous:")
    for name in sorted(gone):
        print(f"  {name}")

    # 2. Body change: toggling O10 (debug mode) rewrites the trace lines
    # out of the AcceptorEventHandler.
    debug_src = async_report.find_class("AcceptorEventHandler").source
    prod_src = NSERVER.render(base.replace(O10="Production"),
                              package="tour").find_class(
                                  "AcceptorEventHandler").source
    print("\nAcceptorEventHandler, Debug -> Production diff:")
    for line in difflib.unified_diff(debug_src.splitlines(),
                                     prod_src.splitlines(),
                                     lineterm="", n=0):
        if line.startswith(("+", "-")) and not line.startswith(("+++", "---")):
            print(f"  {line}")

    # 3. The whole Table 2, computed by generate-and-diff.
    print()
    matrix = empirical_matrix(NSERVER, ALL_FEATURES_ON,
                              extra_bases=(POOL_TOGGLE_BASE,
                                           DEPLOYMENT_TOGGLE_BASE))
    print(format_matrix(matrix, title="Empirical crosscut matrix (Table 2):"))


if __name__ == "__main__":
    main()
