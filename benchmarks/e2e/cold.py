"""One traced ``upsim`` process for the ``casestudy-cold`` workload.

``python -m benchmarks.e2e.cold SPAWNED DUMP ARG...`` runs
``repro.cli.main(ARG...)`` with the layer wrappers installed.  SPAWNED is
the runner's ``time.monotonic()`` just before it started this process
(the clock is shared by every process on the machine), so the
``startup`` span covers interpreter start-up plus ``import repro.cli``.
The CLI's output goes to stdout as usual; the spans and the program's
counters are written to DUMP as JSON when ``main`` returns.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv) -> int:
    spawned = float(argv[0])
    dump = argv[1]
    from benchmarks.e2e import layers

    recorder = layers.Recorder()
    root = recorder.begin_op(start=spawned)
    import repro.casestudy  # noqa: F401 - cmd_casestudy imports it lazily
    import repro.cli

    root.children.append(
        layers.Span("startup", "import repro.cli", spawned, time.monotonic())
    )
    patcher = layers.Patcher(recorder).prepare()
    patcher.install()
    try:
        code = repro.cli.main(argv[2:])
    finally:
        patcher.uninstall()
        sys.stdout.flush()
    with open(dump, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "spans": [child.to_dict() for child in root.children],
                "counters": layers.program_counters(),
            },
            handle,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
