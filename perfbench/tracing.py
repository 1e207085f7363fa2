"""In-memory span tracer installed from outside the simulator.

`Tracer.installed()` replaces each traced function at every module
attribute its callers look it up under (for example ``analysis.zfp_bank``
as well as ``dl_precoding``'s own names), records one span per call and
puts the originals back on exit. Spans carry their parent span and the
thread they ran on, so self time is measured per thread even when
`run_sweep` fans cells out over a thread pool.
"""

import contextlib
import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass

from scmimo import analysis, channel, dl_precoding, experiments_cli

# (module, attribute looked up by a caller, span name). One wrapper is made
# per original function, so a call is recorded once whichever name it used.
TARGETS = [
    (experiments_cli, "load_config", "experiments_cli.load_config"),
    (experiments_cli, "optimize_beta", "experiments_cli.optimize_beta"),
    (experiments_cli, "write_csv", "experiments_cli.write_csv"),
    (experiments_cli, "exponential_correlation", "corr_models.build"),
    (experiments_cli, "bessel_correlation", "corr_models.build"),
    (experiments_cli, "identity_correlation", "corr_models.build"),
    (experiments_cli, "draw_channel", "channel.draw_channel"),
    (analysis, "draw_channel", "channel.draw_channel"),
    (channel, "taps_to_freq", "channel.taps_to_freq"),
    (analysis, "zfp_bank", "dl_precoding.zfp_bank"),
    (analysis, "rzfp_bank", "dl_precoding.rzfp_bank"),
    (dl_precoding, "synthesis_bins", "dl_precoding.synthesis_bins"),
    (dl_precoding, "normalize_bank", "dl_precoding.normalize_bank"),
    (analysis, "zfe_bank", "ul_equalization.zfe_bank"),
    (analysis, "mmsee_bank", "ul_equalization.mmsee_bank"),
    (experiments_cli, "mc_buckets", "analysis.mc_buckets"),
    (analysis, "mc_buckets", "analysis.mc_buckets"),
    (experiments_cli, "sum_rate_mc", "analysis.sum_rate_mc"),
    (experiments_cli, "buckets_to_result", "analysis.buckets_to_result"),
    (analysis, "buckets_to_result", "analysis.buckets_to_result"),
]

SPAN_NAMES = sorted({name for _, _, name in TARGETS})


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int        # 0 for a span with no traced caller on its thread
    name: str
    thread_id: int
    start: float          # time.perf_counter seconds
    end: float

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records spans for the calls made while `installed()` is active."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _wrap(self, name, fn):
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent_id = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append(Span(span_id, parent_id, name,
                                  threading.get_ident(), start, end))
        return traced

    @contextlib.contextmanager
    def installed(self):
        wrappers = {}
        saved = []
        try:
            for module, attr, name in TARGETS:
                original = getattr(module, attr)
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(name, original)
                saved.append((module, attr, original))
                setattr(module, attr, wrappers[id(original)])
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s.span_id):
                fh.write(json.dumps(span.__dict__) + "\n")


def layer_totals(spans):
    """{span name: (calls, busy seconds, self seconds)}.

    Busy seconds add up over threads, so with two sweep workers a layer can
    be busy for longer than the sweep's wall time. Self time is a span's
    duration minus the durations of its direct traced children.
    """
    child_time = {}
    for span in spans:
        if span.parent_id:
            child_time[span.parent_id] = (child_time.get(span.parent_id, 0.0)
                                          + span.duration)
    totals = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
    for span in spans:
        entry = totals[span.name]
        entry[0] += 1
        entry[1] += span.duration
        entry[2] += span.duration - child_time.get(span.span_id, 0.0)
    return {name: tuple(v) for name, v in totals.items()}


def count_under(spans, name, ancestor):
    """Number of `name` spans that have an `ancestor` span above them."""
    by_id = {span.span_id: span for span in spans}
    count = 0
    for span in spans:
        if span.name != name:
            continue
        parent = by_id.get(span.parent_id)
        while parent is not None and parent.name != ancestor:
            parent = by_id.get(parent.parent_id)
        count += parent is not None
    return count
