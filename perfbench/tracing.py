"""Traced run of one bayes_ssi command: spans around the calls into each layer.

Run as a child process, with ``src`` on PYTHONPATH:

    python3 perfbench/tracing.py SPAWNED SPANS_OUT CLI_ARG...

SPAWNED is the parent's ``time.monotonic()`` just before it started this
process, so the root span ``cli`` and ``cli.startup`` (a fresh interpreter
importing ``bayes_ssi.cli``) begin at spawn.  The child replaces the public
functions at the module attributes the CLI resolves them through
(``cli.*``, ``modal_posterior.*``, ``subspace.build_hankel``, so the Hankel
built inside ``ssi_cov`` nests under it, and ``gibbs.cca``, the warm-start
CCA), calls ``cli.main`` in process, and writes the spans, kept in memory
until then, to SPANS_OUT.  The parent closes the root span when it reaps
the process.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import json
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# layer time metrics: the summed self time of the spans named.  They are
# grouped by role so each is nonzero on every workload: the engine is VB or
# Gibbs, the subspace solve is the classical SSI or the warm-start CCA, and
# pooling is aligning draws (identify) or pooling per-order triples
# (stabilise).  Together they add up to ``trace.wall_s``.
LAYER_SPANS = {
    "cli.startup_s": ("cli.startup",),
    "cli.self_s": ("cli", "cli.main"),
    "io.ingest_s": ("io.ingest",),
    "io.write_s": ("io.write",),
    "subspace.hankel_s": ("subspace.hankel",),
    "subspace.solve_s": ("subspace.ssi_cov", "subspace.cca"),
    "engine.run_s": ("vb.engine", "gibbs.engine"),
    "modal_posterior.draw_s": ("modal_posterior.draw",),
    "modal_posterior.propagate_s": ("modal_posterior.propagate",),
    "modal_posterior.pool_s": ("modal_posterior.align", "modal_posterior.stabilisation"),
    "spectral.welch_s": ("spectral.welch",),
}

UNITS = {
    **dict.fromkeys(LAYER_SPANS, "s"),
    "engine.runs": "count",
    "engine.sweeps": "count",
    "engine.ms_per_sweep": "ms",
    "io.bytes_written": "bytes",
    "subspace.hankel_calls": "count",
    "subspace.hankel_mb": "MiB",
    "modal_posterior.draws": "count",
    "modal_posterior.excluded": "count",
    "modal_posterior.aligned_ratio": "fraction",
    "modal_posterior.us_per_draw": "us",
    "trace.wall_s": "s",
}


def openblas_info() -> dict:
    """Config string and effective thread count of the OpenBLAS bundled
    with numpy, read through its exported ``scipy_openblas_*64_`` calls."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                           "libscipy_openblas64_*.so*")
    libs = sorted(glob.glob(pattern))
    if not libs:
        return {"library": None, "config": None, "threads": None}
    lib = ctypes.CDLL(libs[0])
    get_threads = lib.scipy_openblas_get_num_threads64_
    get_threads.argtypes = []
    get_threads.restype = ctypes.c_int
    get_config = lib.scipy_openblas_get_config64_
    get_config.argtypes = []
    get_config.restype = ctypes.c_char_p
    return {"library": os.path.basename(libs[0]),
            "config": get_config().decode(),
            "threads": int(get_threads())}


class Tracer:
    """Nested spans on one thread: name, start, end, parent index, counts."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str, start: float | None = None) -> dict:
        span = {"name": name,
                "start": time.monotonic() if start is None else start,
                "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "counts": {}}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.monotonic()
        self._stack.pop()

    def wrap(self, module, attr: str, name: str, counts=None) -> None:
        """Replace ``module.attr`` by a traced call; ``counts(args, result)``
        gives the span's counts."""
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counts is not None:
                span["counts"] = counts(args, result)
            return result

        setattr(module, attr, traced)


def bytes_under(path) -> int:
    """Size of a file, or of all files under a directory."""
    path = Path(path)
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _hankel_counts(args, hp) -> dict:
    return {"subspace.hankel_mb": (hp.past.nbytes + hp.future.nbytes) / 2**20}


def instrument(tracer: Tracer, cli, modal_posterior, subspace, gibbs) -> None:
    """Wrap every layer call the CLI makes, where it resolves it."""
    wrap = tracer.wrap
    wrap(cli, "ingest_csv", "io.ingest")
    for attr in ("write_json", "write_matrix_csv", "save_chain", "save_vb_posterior"):
        wrap(cli, attr, "io.write",
             lambda args, _: {"io.bytes_written": bytes_under(args[0])})
    for module in (cli, modal_posterior, subspace):
        wrap(module, "build_hankel", "subspace.hankel", _hankel_counts)
    wrap(cli, "ssi_cov", "subspace.ssi_cov")
    # the warm start's CCA, which the VB engine reaches through gibbs
    wrap(gibbs, "cca", "subspace.cca")
    for module in (cli, modal_posterior):
        wrap(module, "run_vb", "vb.engine", lambda _, post: {"sweeps": post.n_iter})
        wrap(module, "draw_observability_samples", "modal_posterior.draw")
        wrap(module, "propagate_many", "modal_posterior.propagate",
             lambda args, res: {"modal_posterior.draws": args[0].shape[0],
                                "modal_posterior.excluded": res[1]})
    wrap(cli, "run_gibbs", "gibbs.engine",
         lambda _, chain: {"sweeps": chain.config.n_samples})
    wrap(cli, "chain_observability_samples", "modal_posterior.draw")
    wrap(cli, "align_modes", "modal_posterior.align",
         lambda _, post: {"aligned": sum(c.n_aligned for c in post.clusters),
                          "slots": post.n_draws * len(post.clusters)})
    wrap(cli, "stabilisation", "modal_posterior.stabilisation")
    wrap(cli, "welch_psd", "spectral.welch")


def self_times(spans: list[dict]) -> list[float]:
    own = [s["end"] - s["start"] for s in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics (see ``UNITS``) from a closed span tree whose
    first span is the root ``cli``."""
    own = self_times(spans)
    seconds: defaultdict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    counts: defaultdict[str, float] = defaultdict(float)
    for span, t in zip(spans, own):
        seconds[span["name"]] += t
        calls[span["name"]] += 1
        for key, value in span["counts"].items():
            counts[key] += value

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    metrics = {metric: sum(seconds[name] for name in names)
               for metric, names in LAYER_SPANS.items()}
    metrics.update({
        "engine.runs": calls["vb.engine"] + calls["gibbs.engine"],
        "engine.sweeps": counts["sweeps"],
        "engine.ms_per_sweep": ratio(metrics["engine.run_s"], counts["sweeps"], 1e3),
        "io.bytes_written": counts["io.bytes_written"],
        "subspace.hankel_calls": calls["subspace.hankel"],
        "subspace.hankel_mb": counts["subspace.hankel_mb"],
        "modal_posterior.draws": counts["modal_posterior.draws"],
        "modal_posterior.excluded": counts["modal_posterior.excluded"],
        "modal_posterior.aligned_ratio": ratio(counts["aligned"], counts["slots"]),
        "modal_posterior.us_per_draw": ratio(
            metrics["modal_posterior.draw_s"] + metrics["modal_posterior.propagate_s"]
            + metrics["modal_posterior.pool_s"], counts["modal_posterior.draws"], 1e6),
        "trace.wall_s": spans[0]["end"] - spans[0]["start"],
    })
    return metrics


def main(argv: list[str]) -> int:
    spawned, spans_out, cli_args = float(argv[0]), Path(argv[1]), argv[2:]
    tracer = Tracer()
    tracer.open("cli", start=spawned)
    startup = tracer.open("cli.startup", start=spawned)
    from bayes_ssi import cli, gibbs, modal_posterior, subspace
    tracer.close(startup)
    instrument(tracer, cli, modal_posterior, subspace, gibbs)
    run = tracer.open("cli.main")
    try:
        code = cli.main(cli_args)
    finally:
        tracer.close(run)
        spans_out.write_text(json.dumps({"spans": tracer.spans,
                                         "blas": openblas_info()}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
