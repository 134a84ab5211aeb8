"""Spans at the layer boundaries of ``regpart``, recorded from outside.

:meth:`Tracer.install` wraps each public function in :data:`TARGETS` and
rebinds the wrapper in every ``regpart`` module namespace that holds the
original, so calls the pipeline makes internally are timed too.  The
program's sources are not touched.  Each call leaves one span
``(name, start, end, parent, op)`` in memory; :meth:`Tracer.dump` writes
them out once the run is over.  The layer of a span is its module.
"""

import functools
import json
import statistics
import sys
import time

import numpy as np

__all__ = ["TARGETS", "Tracer", "layer_metrics", "module_shares"]

#: ``(module, attribute path)`` of every wrapped function.
TARGETS = (
    ("modelio", "load_model"),
    ("modelio", "write_doc"),
    ("model", "derive_fields"),
    ("model", "CoefficientSet.validate"),
    ("model", "eval_form"),
    ("model", "form_gram"),
    ("model", "estimate_vertex_angle"),
    ("regularize", "build_singular_structure"),
    ("regularize", "assemble_regular"),
    ("regularize", "identity_suite"),
    ("regularize", "pure_second_order_parts"),
    ("regularize", "identity_residuals"),
    ("completion", "build_ambient"),
    ("completion", "build_v_subspace"),
    ("completion", "compute_operators"),
    ("completion", "oracle_regular_part"),
    ("completion", "t_pi2_probe"),
    ("diagnostics", "check_equivalences"),
    ("diagnostics", "check_realpart_commutation"),
    ("diagnostics", "singular_vertex"),
    ("diagnostics", "regular_sector_tangent"),
    ("pipeline", "compute_report"),
    ("pipeline", "run_probe"),
    ("pipeline", "oracle_crosscheck"),
    ("pipeline", "multiplication_residuals"),
    ("pipeline", "run_verification"),
    ("randomized", "random_oracle_case"),
    ("randomized", "random_qz_draws"),
)

#: Dense ``nb x nb`` matrices each completion result carries, by function.
DENSE_FIELDS = {
    "completion.build_v_subspace": ("gram_a", "gram_form"),
    "completion.compute_operators": ("pi1", "pi2", "T", "Pi"),
}

OP_PREFIX = "op."


def _dense_v_bytes(result, fields):
    """``16 nb^2`` per complex ``nb x nb`` matrix among ``fields``
    (computed from shapes, not measured)."""
    mats = [getattr(result, f, None) for f in fields]
    mats = [m for m in mats if isinstance(m, np.ndarray) and m.ndim == 2
            and m.shape[0] == m.shape[1]]
    return (max((m.shape[0] for m in mats), default=0),
            sum(16 * m.shape[0] ** 2 for m in mats))


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.ops = []
        self.failed = []
        self.notes = {}
        self.op_rounds = []
        self._stack = []
        self._op = -1
        self._restore = []

    # -- recording -------------------------------------------------------

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self._op)
        self.ends.append(None)
        self.failed.append(False)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, func):
        dense = DENSE_FIELDS.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                self.failed[idx] = True
                raise
            finally:
                self._close(idx)
            if dense:
                self.notes[idx] = _dense_v_bytes(result, dense)
            return result
        return traced

    def begin_op(self, kind, round_no):
        """Open the root span of one user command."""
        self._op = len(self.op_rounds)
        self.op_rounds.append(round_no)
        return self._open(OP_PREFIX + kind)

    def end_op(self, idx):
        self._close(idx)
        self._op = -1

    # -- installation ----------------------------------------------------

    def install(self):
        """Rebind a wrapper for every target in every ``regpart`` module."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "regpart"
                                         or name.startswith("regpart."))]
        for mod_name, path in TARGETS:
            owner = sys.modules["regpart." + mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.wrap(mod_name + "." + path, original)
            holders = [owner] if outer else \
                [m for m in modules if getattr(m, attr, None) is original]
            for holder in holders:
                setattr(holder, attr, wrapper)
                self._restore.append((holder, attr, original))

    def uninstall(self):
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore = []

    # -- accounting ------------------------------------------------------

    def self_times(self):
        """Span duration minus the time its direct children cover."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        own = list(dur)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= dur[idx]
        return dur, own

    def dump(self, path, extra=None):
        """Write every span as ``[name, start, end, parent, op, failed]``."""
        table = sorted(set(self.names))
        index = {name: k for k, name in enumerate(table)}
        doc = {"names": table, "op_rounds": self.op_rounds,
               "fields": ["name", "start", "end", "parent", "op", "failed"],
               "spans": [[index[n], s, e, p, o, int(f)] for n, s, e, p, o, f
                         in zip(self.names, self.starts, self.ends,
                                self.parents, self.ops, self.failed)]}
        doc.update(extra or {})
        with open(path, "w") as handle:
            json.dump(doc, handle, separators=(",", ":"))


def _per_round(values_by_round, rounds):
    return statistics.median(values_by_round.get(r, 0.0) for r in rounds)


def layer_metrics(tracer, rounds, models_per_verify):
    """Per-layer numbers per round (median over the traced ``rounds``).

    ``<name>.s`` is inclusive time, ``<name>.self_s`` self time and
    ``<name>.calls`` the call count, all per round.
    """
    dur, own = tracer.self_times()
    span_round = [tracer.op_rounds[o] if o >= 0 else None
                  for o in tracer.ops]
    incl, selft, calls = {}, {}, {}
    for idx, name in enumerate(tracer.names):
        r = span_round[idx]
        for table, value in ((incl, dur[idx]), (selft, own[idx]),
                             (calls, 1)):
            by_round = table.setdefault(name, {})
            by_round[r] = by_round.get(r, 0) + value
    out = {}
    for name in (m + "." + p for m, p in TARGETS):
        out[name + ".s"] = _per_round(incl.get(name, {}), rounds)
        out[name + ".self_s"] = _per_round(selft.get(name, {}), rounds)
        out[name + ".calls"] = _per_round(calls.get(name, {}), rounds)

    v_dim = 0
    dense = {}
    for idx, (nb, nbytes) in tracer.notes.items():
        v_dim = max(v_dim, nb)
        r = span_round[idx]
        dense[r] = dense.get(r, 0) + nbytes
    out["completion.v_dim"] = v_dim
    out["completion.dense_bytes"] = _per_round(dense, rounds)

    # Oracle models a random_oracle_case draw returned, against the V-space
    # builds it attempted on the way.
    returned = attempts = 0
    case_name = "randomized.random_oracle_case"
    for idx, name in enumerate(tracer.names):
        if name == case_name and not tracer.failed[idx]:
            returned += 1
        elif (name == "completion.build_v_subspace"
              and tracer.parents[idx] >= 0
              and tracer.names[tracer.parents[idx]] == case_name):
            attempts += 1
    out["randomized.case_accept_ratio"] = returned / attempts if attempts \
        else float("nan")

    # V-space builds per oracle model inside verify commands.
    in_verify = _ops_of_kind(tracer, "verify")
    builds = sum(1 for idx, name in enumerate(tracer.names)
                 if name == "completion.build_v_subspace"
                 and tracer.ops[idx] in in_verify)
    out["completion.build_v_subspace.calls_per_model"] = \
        builds / (len(in_verify) * models_per_verify) if in_verify \
        else float("nan")
    return out


def _ops_of_kind(tracer, kind):
    root = OP_PREFIX + kind
    return {tracer.ops[idx] for idx, name in enumerate(tracer.names)
            if name == root}


def module_shares(tracer, kind):
    """Self time per module inside commands of ``kind``, as a share of
    their total wall time; ``op`` holds the time outside every layer."""
    _, own = tracer.self_times()
    ops = _ops_of_kind(tracer, kind)
    total = 0.0
    shares = {}
    for idx, name in enumerate(tracer.names):
        if tracer.ops[idx] not in ops:
            continue
        if name.startswith(OP_PREFIX):
            total += tracer.ends[idx] - tracer.starts[idx]
        module = name.split(".", 1)[0]
        shares[module] = shares.get(module, 0.0) + own[idx]
    return {m: v / total for m, v in shares.items()} if total else {}
