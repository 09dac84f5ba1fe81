"""Layer spans recorded from outside ``tpm_lab`` by wrapping its names.

Each traced name is wrapped at the attribute where its caller looks it
up: cli.py calls ``tpm_lab.cli.joint_distribution``, not the function
object in tpm.py under its own module, and constructors are wrapped on
the class (``ProjectorFamily.__init__``), which every caller shares. No
file under ``src/`` changes. A traced name that no longer exists is an
error, so a renamed boundary cannot quietly read as zero time.

Two recorders share the wrapping: :class:`SpanRecorder` keeps wall-clock
spans in memory, and :class:`PeakRecorder` keeps per-layer tracemalloc
peaks in a pass of its own, so tracemalloc's cost never enters a span.
"""

from __future__ import annotations

import functools
import importlib
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# "module:attribute" → span name. A span name is "<layer>.<part>"; the
# layer is the tpm_lab module doing the work.
SPANS = {
    "tpm_lab.cli:main": "cli.main",
    "tpm_lab.cli:rows_to_csv": "cli.serialize",
    "tpm_lab.cli:rows_to_json": "cli.serialize",
    "tpm_lab.cli:_estimate_to_json": "cli.serialize",
    "tpm_lab.cli:_write_output": "cli.serialize",
    "tpm_lab.cli:load_scenario": "scenarios.load",
    "tpm_lab.cli:build_scenario": "scenarios.build",
    "tpm_lab.cli:sweep_configs": "scenarios.build",
    "tpm_lab.scenarios:gibbs_ensemble": "quantum.build",
    "tpm_lab.scenarios:eigen_measurement": "quantum.build",
    "tpm_lab.scenarios:standard_channel": "quantum.build",
    "tpm_lab.scenarios:channel_from_unitary": "quantum.build",
    "tpm_lab.scenarios:maximally_mixed": "quantum.build",
    "tpm_lab.quantum:ProjectorFamily.__init__": "quantum.projector_validate",
    "tpm_lab.quantum:KrausChannel.__init__": "quantum.kraus_validate",
    "tpm_lab.quantum:DensityMatrix.__init__": "quantum.state_validate",
    "tpm_lab.quantum:hermitian_eig": "linalg.eig",
    "tpm_lab.scenarios:random_hermitian": "linalg.random",
    "tpm_lab.scenarios:haar_random_unitary": "linalg.random",
    "tpm_lab.cli:joint_distribution": "tpm.joint",
    "tpm_lab.tpm:distribution_from_joint": "tpm.table",
    "tpm_lab.cli:mutual_information_table": "tpm.mi",
    "tpm_lab.cli:work_statistics": "tpm.work",
    "tpm_lab.cli:compare_mi_to_dissipation": "tpm.work",
    "tpm_lab.cli:sample_trajectories": "sampler.draw",
    "tpm_lab.cli:estimate_exponential_average": "sampler.estimate",
}
SPAN_NAMES = tuple(dict.fromkeys(SPANS.values()))

# Work counted at a span boundary: span name → (count name, count of one
# call from its arguments and result).
COUNTS = {
    "quantum.kraus_validate": ("quantum.kraus_ops",
                               lambda args, result: len(args[0])),
    "tpm.joint": ("tpm.cells", lambda args, result: result.p_joint.size),
    "sampler.estimate": ("sampler.samples",
                         lambda args, result: result.sample_count),
}


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if attr not in vars(owner):
        raise LookupError(f"traced name {target} no longer exists; "
                          "update perfbench/tracing.py")
    return owner, attr


@contextmanager
def installed(recorder):
    """Wrap every traced name with ``recorder.wrap``; restore them on exit."""
    targets = [(*_resolve(target), name) for target, name in SPANS.items()]
    originals = []
    try:
        for owner, attr, name in targets:
            original = vars(owner)[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(original, name))
        yield recorder
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


class SpanRecorder:
    """Wall-clock spans ``[case, name, parent index, start, end]``.

    ``case`` is set by the caller before each CLI case, so the spans of
    one case share it; parent −1 marks a root span.
    """

    def __init__(self):
        self.case = -1
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[int] = []

    def wrap(self, fn, name):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self.case, name, self._open[-1] if self._open else -1,
                    perf_counter(), 0.0]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                self._open.pop()
            if count:
                self.counts[count[0]] += count[1](args, result)
            return result
        return traced

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus the time its children cover."""
        totals = dict.fromkeys(SPAN_NAMES, 0.0)
        for _, name, parent, start, end in self.spans:
            totals[name] += end - start
            if parent >= 0:
                totals[self.spans[parent][1]] -= end - start
        return totals


class PeakRecorder:
    """Per layer, the largest tracemalloc peak inside any of its spans.

    A span's peak is the most memory traced at once while it ran, minus
    what was traced when it began. tracemalloc has one global peak, so
    each span resets it on entry and hands the peak it saw to its parent
    on exit.
    """

    def __init__(self):
        self.peaks: dict[str, int] = defaultdict(int)
        self._open: list[list[int]] = []  # [bytes at entry, children's peak]

    def wrap(self, fn, name):
        layer = layer_of(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            if self._open:
                self._open[-1][1] = max(self._open[-1][1], peak)
            frame = [current, 0]
            self._open.append(frame)
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                self._open.pop()
                peak = max(frame[1], tracemalloc.get_traced_memory()[1])
                self.peaks[layer] = max(self.peaks[layer], peak - frame[0])
                if self._open:
                    self._open[-1][1] = max(self._open[-1][1], peak)
        return traced
