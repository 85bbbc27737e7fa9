"""One CLI invocation under the layer tracer, for the traced cli-startup ops.

Usage: PERFBENCH_SPANS=<file> PERFBENCH_OP=<id> python traced_cli.py <argv...>
Behaves as `python -m nonlocal_ssh <argv...>` and writes the spans to the file.
"""

import os
import sys

from nonlocal_ssh import cli

from tracing import Tracer, write_spans

if __name__ == "__main__":
    tracer = Tracer()
    try:
        code = tracer.run_op(int(os.environ["PERFBENCH_OP"]), lambda: cli.main(sys.argv[1:]))
    finally:
        sys.stdout.flush()
        write_spans(os.environ["PERFBENCH_SPANS"], tracer.spans)
    sys.exit(code)
