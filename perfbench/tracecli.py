"""Run the iwot command line with spans around each module's public functions.

    python3 perfbench/tracecli.py TRACE_JSON <iwot arguments...>

Runs `iwot.cli.main` on the arguments, then checks every transport plan the
command solved and writes the spans and the check result to TRACE_JSON.
Exits with the command's own exit code.
"""

import json
import sys

import checks
from tracer import CLI_SITES, LIBRARY_SITES, Tracer


def main(argv):
    trace_path, cli_args = argv[0], argv[1:]
    import iwot.cli

    tracer = Tracer()
    tracer.install(LIBRARY_SITES + CLI_SITES)
    try:
        code = iwot.cli.main(cli_args)
    finally:
        tracer.restore()
    plans_checked, misses, plan_error = 0, 0, None
    try:
        plans_checked, misses = checks.check_plans(tracer.plan_records())
    except checks.CheckError as exc:
        plan_error = "iwot %s: %s" % (cli_args[0], exc)
    with open(trace_path, "w", encoding="utf-8") as handle:
        doc = {
            "spans": tracer.spans,
            "plans_checked": plans_checked,
            "exact_marginal_misses": misses,
            "plan_error": plan_error,
        }
        json.dump(doc, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
