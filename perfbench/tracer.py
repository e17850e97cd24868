"""Span tracing of corrq's public functions, wrapped from outside.

Tracer.install() replaces each function in LAYERS, in every loaded corrq
module that binds it, with a wrapper that records a span (id, name,
layer, start, end, parent id) in memory; uninstall() puts the originals
back. A span's self time is its duration minus the durations of its
direct children, and a layer's time is the sum of its spans' self times,
so layer times add up without counting any interval twice. Counts are
taken in the same wrappers, from the arguments and results of the call.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

import numpy as np

# (module, function) -> layer. "Class.method" names a method.
LAYERS = {
    ("randomness", "build_context_arrays"): "randomness.context",
    ("randomness", "build_context"): "randomness.context",
    # a stream_uniform call under a context build is part of the context;
    # anywhere else it draws private rounding randomness
    ("randomness", "stream_uniform"): "randomness.private",
    ("scalar_quant", "correlated_bits"): "scalar_quant.kernel",
    ("scalar_quant", "level_cells"): "scalar_quant.kernel",
    ("scalar_quant", "uniform_grid_cells"): "scalar_quant.kernel",
    ("vector_quant", "cq_encode"): "vector_quant.encode",
    ("vector_quant", "sign_scale_kernel"): "vector_quant.encode",
    ("vector_quant", "cq_decode"): "vector_quant.decode",
    ("vector_quant", "fwht"): "vector_quant.fwht",
    ("vector_quant", "correlated_vector_cq"): "vector_quant.reference",
    ("vector_quant", "entropy_cq"): "vector_quant.reference",
    ("vector_quant", "walsh_hadamard_cq"): "vector_quant.reference",
    ("vector_quant", "independent_vector_sq"): "vector_quant.reference",
    ("vector_quant", "ternary_quantize"): "vector_quant.reference",
    ("vector_quant", "rotate_sign_baseline"): "vector_quant.reference",
    ("vector_quant", "append_scale_tail"): "vector_quant.scale_tail",
    ("vector_quant", "split_scale_tail"): "vector_quant.scale_tail",
    ("bitcodec", "pack_fixed"): "bitcodec.fixed",
    ("bitcodec", "unpack_fixed"): "bitcodec.fixed",
    ("bitcodec", "elias_gamma_encode"): "bitcodec.gamma_encode",
    ("bitcodec", "elias_gamma_encode_many"): "bitcodec.gamma_encode",
    ("bitcodec", "elias_gamma_decode"): "bitcodec.gamma_decode",
    ("bitcodec", "message_encode"): "bitcodec.message",
    ("bitcodec", "message_decode"): "bitcodec.message",
    ("harness", "generate"): "harness.generate",
    ("harness", "run_dme"): "harness.engine_self",
    ("tasks", "quantized_round"): "tasks.round_self",
    ("tasks", "distributed_kmeans"): "tasks.local",
    ("tasks", "distributed_power_iteration"): "tasks.local",
    ("tasks", "distributed_sgd"): "tasks.local",
    ("tasks", "federated_averaging"): "tasks.local",
    ("tasks", "kmeans_objective"): "tasks.objective",
    ("tasks", "model_accuracy"): "tasks.objective",
    ("tasks", "SgdProblem.value"): "tasks.objective",
    ("tasks", "SgdProblem.solve_optimum"): "tasks.solve",
}

CONTEXT = "randomness.context"
# Layers reported from set-up, where their work is done: input generation
# and the logistic reference solve (see workloads.tasks).
SETUP_LAYERS = ("harness.generate", "tasks.solve")
COUNT_UNITS = ("count", "bit", "byte")

# Calls that fix the scheme for everything beneath them; their second
# argument is the scheme. Their whole duration is reported as well.
OWNERS = {"run_dme": "harness.run_dme_s", "quantized_round": "tasks.round_s"}

# Schemes that never read the permutations and offsets of the context they
# build: the rotated baselines read only its signs, and quantized_round
# builds one for the private-randomness schemes too.
UNREAD = frozenset({"independent-rotation", "rotate-sign", "independent", "terngrad"})

# Every per-layer metric reported, with its unit. Times are per round.
METRICS = {
    "randomness.context_s": "s",
    "randomness.context_calls": "count",
    "randomness.context_elems": "count",
    "randomness.context_elems_unread": "count",
    "randomness.private_s": "s",
    "scalar_quant.kernel_s": "s",
    "vector_quant.encode_s": "s",
    "vector_quant.decode_s": "s",
    "vector_quant.coded_elems": "count",
    "vector_quant.fwht_s": "s",
    "vector_quant.fwht_calls": "count",
    "vector_quant.fwht_ops": "count",
    "vector_quant.reference_s": "s",
    "vector_quant.scale_tail_s": "s",
    "bitcodec.fixed_s": "s",
    "bitcodec.fixed_bits": "bit",
    "bitcodec.gamma_encode_s": "s",
    "bitcodec.gamma_decode_s": "s",
    "bitcodec.gamma_codewords": "count",
    "bitcodec.message_s": "s",
    "bitcodec.messages": "count",
    "bitcodec.message_bytes": "byte",
    "harness.generate_s": "s",
    "harness.run_dme_s": "s",
    "harness.engine_self_s": "s",
    "harness.trials": "count",
    "harness.trial_clients": "count",
    "harness.audited_messages": "count",
    "tasks.round_s": "s",
    "tasks.rounds": "count",
    "tasks.payloads_discarded": "count",
    "tasks.local_s": "s",
    "tasks.objective_s": "s",
    "tasks.solve_s": "s",
    "trace.untraced_round_s": "s",
    "trace.overhead": "%",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_context(counts, frame, args, kwargs, result):
    seeds = _arg(args, kwargs, 0, "seeds")
    elems = np.size(seeds) * _arg(args, kwargs, 1, "n") * _arg(args, kwargs, 2, "d")
    counts["randomness.context_calls"] += 1
    counts["randomness.context_elems"] += elems
    if frame.scheme in UNREAD:
        counts["randomness.context_elems_unread"] += elems


def _count_coded(counts, frame, args, kwargs, result):
    counts["vector_quant.coded_elems"] += np.size(args[0])


def _count_fwht(counts, frame, args, kwargs, result):
    m = np.shape(args[0])[-1]
    counts["vector_quant.fwht_calls"] += 1
    counts["vector_quant.fwht_ops"] += np.size(args[0]) * int(math.log2(m))


def _count_reference(counts, frame, args, kwargs, result):
    if frame.parent is not None and frame.parent.name == "quantized_round":
        counts["tasks.payloads_discarded"] += len(result.payloads)


def _count_message(counts, frame, args, kwargs, result):
    counts["bitcodec.messages"] += 1
    counts["bitcodec.message_bytes"] += len(result)
    if frame.owner == "run_dme":
        counts["harness.audited_messages"] += 1


def _count_run_dme(counts, frame, args, kwargs, result):
    trials = _arg(args, kwargs, 2, "trials")
    counts["harness.trials"] += trials
    counts["harness.trial_clients"] += trials * _arg(args, kwargs, 0, "data").n


def _count_gamma(counts, frame, args, kwargs, result):
    counts["bitcodec.gamma_codewords"] += len(result)


def _count_fixed_bits(counts, frame, args, kwargs, result):
    stream = result if frame.name == "pack_fixed" else args[0]
    counts["bitcodec.fixed_bits"] += stream.length


def _count_round(counts, frame, args, kwargs, result):
    counts["tasks.rounds"] += 1


COUNTERS = {
    "build_context_arrays": _count_context,
    "cq_encode": _count_coded,
    "sign_scale_kernel": _count_coded,
    "fwht": _count_fwht,
    "correlated_vector_cq": _count_reference,
    "entropy_cq": _count_reference,
    "walsh_hadamard_cq": _count_reference,
    "independent_vector_sq": _count_reference,
    "ternary_quantize": _count_reference,
    "rotate_sign_baseline": _count_reference,
    "message_encode": _count_message,
    "run_dme": _count_run_dme,
    "elias_gamma_decode": _count_gamma,
    "pack_fixed": _count_fixed_bits,
    "unpack_fixed": _count_fixed_bits,
    "quantized_round": _count_round,
}


class _Frame:
    __slots__ = ("id", "name", "layer", "parent", "owner", "scheme", "start", "child")

    def __init__(self, span_id, name, layer, parent):
        self.id, self.name, self.layer, self.parent = span_id, name, layer, parent
        self.owner = parent.owner if parent is not None else None
        self.scheme = parent.scheme if parent is not None else None
        self.child = 0.0


class Tracer:
    """Wraps the functions in LAYERS while installed and accumulates the
    spans, per-layer self times and counts since the last reset()."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.whole_s: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[_Frame] = []
        self._next_id = 0

    def install(self) -> None:
        modules = [
            m for name, m in sys.modules.items()
            if name == "corrq" or name.startswith("corrq.")
        ]
        for (module_name, attr), layer in LAYERS.items():
            module = sys.modules[f"corrq.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._patches.append((cls, method, original))
                setattr(cls, method, self._wrap(attr, layer, original))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(attr, layer, original)
            for m in modules:
                for name in [n for n, v in vars(m).items() if v is original]:
                    self._patches.append((m, name, original))
                    setattr(m, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _wrap(self, name, layer, fn):
        count = COUNTERS.get(name)
        is_owner = name in OWNERS
        joins_context = name == "stream_uniform"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_layer = layer
            if joins_context and parent is not None and parent.layer == CONTEXT:
                span_layer = CONTEXT
            frame = _Frame(tracer._next_id, name, span_layer, parent)
            tracer._next_id += 1
            if is_owner:
                frame.owner, frame.scheme = name, _arg(args, kwargs, 1, "scheme")
            stack.append(frame)
            frame.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            duration = end - frame.start
            tracer.self_s[span_layer] += duration - frame.child
            if parent is not None:
                parent.child += duration
            if is_owner:
                tracer.whole_s[OWNERS[name]] += duration
            tracer.spans.append(
                (frame.id, name, span_layer, frame.start, end,
                 None if parent is None else parent.id)
            )
            if count is not None:
                count(tracer.counts, frame, args, kwargs, result)
            return result

        return traced

    def layer_metrics(self) -> dict[str, float]:
        """Self time of every layer, whole time of the OWNERS calls and
        every count, since the last reset()."""
        out: dict[str, float] = {f"{layer}_s": 0.0 for layer in LAYERS.values()}
        out.update({f"{layer}_s": s for layer, s in self.self_s.items()})
        out.update({name: 0.0 for name in OWNERS.values()})
        out.update(self.whole_s)
        out.update({m: 0 for m, unit in METRICS.items() if unit in COUNT_UNITS})
        out.update(self.counts)
        return out
