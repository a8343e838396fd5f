"""Span recording from outside the augbin package.

A :class:`Tracer` replaces module functions and class methods with thin
wrappers that record one span per call: name, start, end, parent span, and
the benchmark operation that was running.  Each name is patched where its
caller looks it up (``augbin.harness.encode`` as well as
``augbin.layers.encode``), because rebinding a function in its defining
module does not reach modules that imported it by name.

Spans live in flat ``array('q')`` columns, so a traced run of a few hundred
thousand calls costs a few megabytes, and are written out once at the end.
Self time is a span's duration minus the time its direct children cover;
calls in one thread nest strictly, so that cover is the sum of the child
durations.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

import augbin.cli
import augbin.data
import augbin.gradcheck
import augbin.harness
import augbin.layers
import augbin.network
import augbin.report

_perf_ns = time.perf_counter_ns

_network = augbin.network
_harness = augbin.harness
_layers = augbin.layers

# (owner, attribute, span name).  Owners are modules or classes; a name may
# appear under several owners when more than one module imported it.
PATCH_TABLE = (
    (augbin.cli, "run", "cli.run"),
    (augbin.cli, "run_verification", "harness.run_verification"),
    (augbin.cli, "run_sgd", "network.run_sgd"),
    (_network, "run_sgd", "network.run_sgd"),
    (augbin.cli, "mean_loss", "network.mean_loss"),
    (_network, "mean_loss", "network.mean_loss"),
    (augbin.cli, "build_network", "network.build_network"),
    (_network, "build_network", "network.build_network"),
    (_harness, "build_network", "network.build_network"),
    (augbin.cli, "load_csv", "data.load_csv"),
    (augbin.data, "load_csv", "data.load_csv"),
    (augbin.cli, "write_report", "report.write_report"),
    (augbin.report, "write_report", "report.write_report"),
    (_layers, "encode", "bitcode.encode"),
    (_harness, "encode", "bitcode.encode"),
    (augbin.gradcheck, "encode", "bitcode.encode"),
    (_layers, "contributions_matrix", "layers.contributions_matrix"),
    (_harness, "contributions_matrix", "layers.contributions_matrix"),
    (_harness, "check_gradients", "gradcheck.check_gradients"),
    (augbin.gradcheck, "check_gradients", "gradcheck.check_gradients"),
    (_harness, "run_verification", "harness.run_verification"),
    (_harness, "build_onehot_twin", "harness.build_onehot_twin"),
    (_harness, "synthetic_stream", "harness.synthetic_stream"),
    (_harness, "isolation_probe", "harness.isolation_probe"),
    (_harness, "interference_errors", "harness.interference_errors"),
    (_harness, "lockstep_train", "harness.lockstep_train"),
    (_harness, "twin_forward_max_diff", "harness.twin_forward_max_diff"),
    (_harness, "brute_force_check", "harness.brute_force_check"),
    (_network.Network, "forward", "network.forward"),
    (_network.Network, "backprop_deltas", "network.backprop_deltas"),
    (_network.Network, "sgd_step", "network.sgd_step"),
    (_network.DenseLayer, "forward", "network.dense_forward"),
    *(
        (cls, method, f"layers.{method}.{cls.kind}")
        for cls in (_layers.OneHotLayer, _layers.BinaryLayer, _layers.AugmentedBinaryLayer)
        for method in ("forward", "apply_update")
    ),
    *(
        (cls, "effective_contribution", "layers.effective_contribution")
        for cls in (_layers.OneHotLayer, _layers.BinaryLayer, _layers.AugmentedBinaryLayer)
    ),
)


class Tracer:
    """Records spans for patched calls while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.op_labels: list[str] = []  # op id -> workload variant label
        self._op = -1  # -1: spans outside any operation (set-up)
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def begin_op(self, label: str) -> None:
        """Attribute the spans that follow to a new operation of ``label``."""
        self._op = len(self.op_labels)
        self.op_labels.append(label)

    def end_op(self) -> None:
        self._op = -1

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str):
        nid = self._name_id(name)
        names, starts, ends, parents, ops = self.name, self.start, self.end, self.parent, self.op
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self._op)
            ends.append(0)
            stack.append(idx)
            starts.append(_perf_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = _perf_ns()
                stack.pop()

        return traced

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in PATCH_TABLE:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def columns(self) -> dict[str, np.ndarray]:
        """Span columns plus derived duration and self time, in ns."""
        start = np.array(self.start, dtype=np.int64)
        end = np.array(self.end, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        duration = end - start
        cover = np.zeros_like(duration)
        child = parent >= 0
        np.add.at(cover, parent[child], duration[child])
        return {
            "name": np.array(self.name, dtype=np.int64),
            "start": start,
            "end": end,
            "parent": parent,
            "op": np.array(self.op, dtype=np.int64),
            "duration": duration,
            "self": duration - cover,
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds."""
        cols = self.columns()
        width = len(self.names)
        calls = np.bincount(cols["name"], minlength=width)
        total = np.bincount(cols["name"], weights=cols["duration"], minlength=width)
        own = np.bincount(cols["name"], weights=cols["self"], minlength=width)
        return {
            name: {"calls": int(calls[i]), "s": total[i] / 1e9, "self_s": own[i] / 1e9}
            for i, name in enumerate(self.names)
        }

    def calls_by_label(self, name: str) -> dict[str, int]:
        """Calls of one span name, split by the variant label of their operation."""
        counts = {label: 0 for label in self.op_labels}
        if name not in self._name_ids:
            return counts
        cols = self.columns()
        ops = cols["op"][(cols["name"] == self._name_ids[name]) & (cols["op"] >= 0)]
        for op_id, n in zip(*np.unique(ops, return_counts=True)):
            counts[self.op_labels[op_id]] += int(n)
        return counts

    def write(self, path) -> None:
        """Save every span as columns of one ``.npz`` file."""
        cols = self.columns()
        np.savez(
            path,
            names=np.array(self.names),
            op_labels=np.array(self.op_labels),
            **{key: cols[key] for key in ("name", "start", "end", "parent", "op", "self")},
        )
