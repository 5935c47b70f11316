"""Spans around the public functions of gcnfuse's layers, timed from outside.

The tracer replaces module attributes with timing wrappers for as long as
it is installed, so nothing under src/ changes. A function is replaced under
every module attribute that holds it: `fusion.emd` for the layer solves,
`ot.emd` for FGW's inner solves. Each call leaves one span:
(name, start, end, parent span index, job id, work), where work is the
count the call did (graphs captured, cost entries, solver iterations) or
None. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

from gcnfuse import costs, fusion, graphs, models, ot

FUSE = "fusion.fuse"
EVAL = "models.eval"


def _capture_work(args, result):
    return args[1].sample_size


def _cost_work(args, result):
    """(entries accumulated, bytes of the largest broadcast difference tensor)."""
    acts_a, acts_b, spec = args[:3]
    na, nb, k = acts_a.width, acts_b.width, acts_a.batch.sample_size
    if not acts_a.is_graph_valued:
        diff = na * nb * k
    elif spec.kind == costs.FGW:
        diff = max(g.num_vertices for g in acts_a.batch.graphs) ** 2
    else:
        diff = na * nb * max(g.num_vertices for g in acts_a.batch.graphs)
    return na * nb * k, 8 * diff


def _weight_work(args, result):
    a = args[0]
    cols = a.in_dim + (a.bias is not None)
    return a.out_dim * args[1].out_dim, 8 * a.out_dim * args[1].out_dim * cols


def _iterations(args, result):
    return result.iterations


# (home module, function, span name, work function). While installed, the
# wrapper replaces the function under every gcnfuse module attribute that
# holds it, so both `fusion.emd` (layer solves) and `ot.emd` (FGW's inner
# solves) are timed, wherever a later change moves the callers.
WRAPPED = (
    (fusion, "fuse", FUSE, None),
    (graphs, "load_dataset", "graphs.load_dataset", None),
    (graphs, "sample_batch", "graphs.sample_batch", None),
    (models, "load_model", "models.load_model", None),
    (models, "forward_with_capture", "models.capture", _capture_work),
    (models, "evaluate_mae", EVAL, None),
    (costs, "build_cost_matrix", "costs.build", _cost_work),
    (costs, "weight_cost_matrix", "costs.weight", _weight_work),
    (ot, "emd", "ot.emd", None),
    (ot, "sinkhorn_unbalanced", "ot.sinkhorn", _iterations),
    (ot, "fgw_distance", "ot.fgw", None),
    (fusion, "align_layer_incoming", "fusion.align", None),
    (fusion, "align_layer_outgoing", "fusion.align", None),
    (fusion, "align_batchnorm", "fusion.align", None),
)


class Tracer:
    """Records spans while installed; `job` tags the spans of one fusion job."""

    def __init__(self):
        self.spans: list = []
        self.job: int | None = None
        self._stack: list[int] = []

    def _wrap(self, name, fn, work):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def timed(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                done = work(args, result) if work and result is not None else None
                spans[index] = (name, start, end, parent, self.job, done)

        timed.__wrapped__ = fn
        return timed

    @contextmanager
    def installed(self):
        wrappers = {id(fn): self._wrap(name, fn, work)
                    for home, attr, name, work in WRAPPED
                    if (fn := getattr(home, attr, None)) is not None}
        modules = [m for key, m in list(sys.modules.items())
                   if key == "gcnfuse" or key.startswith("gcnfuse.")]
        replaced = [(m, key, value) for m in modules for key, value in list(vars(m).items())
                    if id(value) in wrappers and wrappers[id(value)].__wrapped__ is value]
        try:
            for module, key, value in replaced:
                setattr(module, key, wrappers[id(value)])
            yield self
        finally:
            for module, key, value in replaced:
                setattr(module, key, value)

    def write(self, path: Path) -> None:
        """One JSON object per span, gzipped, in start order."""
        keys = ("name", "start", "end", "parent", "job", "work")
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def job_breakdown(spans) -> dict[int, dict]:
    """Per job: fuse duration, self time per span name, calls and work per name.

    Also returns, under "emd_in_fgw", how many emd calls ran inside FGW.
    """
    own = self_times(spans)
    jobs: dict[int, dict] = defaultdict(lambda: {
        "fuse": 0.0, "self": defaultdict(float), "calls": defaultdict(int),
        "work": defaultdict(list), "emd_in_fgw": 0,
    })
    for i, (name, start, end, parent, job, work) in enumerate(spans):
        if job is None:
            continue
        rec = jobs[job]
        rec["self"][name] += own[i]
        rec["calls"][name] += 1
        if work is not None:
            rec["work"][name].append(work)
        if name == FUSE:
            rec["fuse"] += end - start
        if name == "ot.emd" and parent >= 0 and spans[parent][0] == "ot.fgw":
            rec["emd_in_fgw"] += 1
    return dict(jobs)


def fuse_accounting_error(spans) -> float:
    """How far the layer self times of each fuse span miss its duration.

    Per fuse span, the self times of the span and all its descendants must
    add up to its duration, every child must lie inside its parent, and no
    self time may be negative. Returns the worst violation in seconds.
    """
    own = self_times(spans)
    root = [-1] * len(spans)
    total: dict[int, float] = defaultdict(float)
    worst = 0.0
    for i, (name, start, end, parent, *_) in enumerate(spans):
        if parent >= 0:
            _, p_start, p_end, *_ = spans[parent]
            worst = max(worst, p_start - start, end - p_end)
        root[i] = i if name == FUSE else (root[parent] if parent >= 0 else -1)
        if root[i] >= 0:
            total[root[i]] += own[i]
            worst = max(worst, -own[i])
    for r, summed in total.items():
        worst = max(worst, abs(summed - (spans[r][2] - spans[r][1])))
    return worst
