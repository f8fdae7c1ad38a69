"""Start ``repro-snd serve`` for the serve-2k workload.

Builds the same ``EngineConfig`` the workload's library check uses and
runs :func:`repro.serve.http.serve_forever` on a free port (printed on
stdout). With ``--trace-out`` it first installs the layer wrappers and,
after a graceful SIGTERM shutdown, writes the recorded spans there — so
traced and untraced servers differ only in tracing.

    PYTHONPATH=src python3 perfbench/serve_launcher.py --store S --flush-interval 6
"""

from __future__ import annotations

import argparse
import json

from measure import N_CLUSTERS


def engine_config(flush_interval: float):
    """The serving configuration (also used for the library check)."""
    from repro.serve import EngineConfig

    return EngineConfig(
        clusters=N_CLUSTERS,
        solver="auto",
        seed=0,
        jobs=1,
        persist_transitions=True,
        flush_interval=flush_interval,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--flush-interval", type=float, required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    from repro.serve import SNDService
    from repro.serve.http import serve_forever

    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer().install()
    service = SNDService(args.store, config=engine_config(args.flush_interval))
    status = serve_forever(service, host="127.0.0.1", port=0)
    if tracer is not None:
        tracer.uninstall()
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.export(), fh)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
