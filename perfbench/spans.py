"""Outside-in tracing of vkshell: spans around every public function of
every module, installed by rebinding names from the benchmark's side.

Each public function defined in a ``vkshell`` module is replaced, in every
``vkshell`` namespace and dispatch dict that refers to it, by a wrapper
that records a span (name, start, end, parent, pass id).  Intra-module
calls go through module globals, so they are traced too.  The layer's
dense generalized eigensolve is traced as ``isometry.eigh`` by wrapping
``scipy.linalg.eigh``.  Spans stay in memory; ``Tracer.dump`` writes them
once, when the pass ends.

Counters that need a call's arguments or result (dof counts, cluster
sizes, bytes written) are taken from them here, at the same boundary.
"""

import contextlib
import functools
import importlib
import inspect
import json
import os
import time

MODULES = ("geometry", "operators", "material", "isometry", "membrane",
           "functional", "minimize", "gammacheck", "presets", "cli")


class Tracer:
    def __init__(self, pass_id):
        self.pass_id = pass_id
        self.spans = []        # [name, start, end, parent index]
        self.counts = {}
        self._stack = []

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, func, count=None):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with tracer.span(name):
                result = func(*args, **kwargs)
            if count is not None:
                count(tracer, args, kwargs, result)
            return result
        return traced

    def install(self):
        """Wrap every public vkshell function and scipy.linalg.eigh, for
        the rest of the process's life."""
        import scipy.linalg
        mods = {m: importlib.import_module("vkshell." + m) for m in MODULES}
        mods[""] = importlib.import_module("vkshell")
        wrapped = {}     # id(original) -> wrapper
        for short, mod in mods.items():
            if not short:
                continue
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = "%s.%s" % (short, attr)
                wrapped[id(obj)] = self._wrap(name, obj, COUNTERS.get(name))
        for mod in mods.values():
            for table in [vars(mod)] + [v for v in vars(mod).values()
                                        if isinstance(v, dict)]:
                for key, obj in list(table.items()):
                    if id(obj) in wrapped:
                        table[key] = wrapped[id(obj)]
        scipy.linalg.eigh = self._wrap("isometry.eigh", scipy.linalg.eigh,
                                       _count_eigh)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"pass_id": self.pass_id, "spans": self.spans,
                       "counts": self.counts}, fh)


# ---------------------------------------------------------------------------
# counters at call boundaries
# ---------------------------------------------------------------------------

def _count_basis(tr, args, kwargs, basis):
    chart = args[0]
    tr.add("isometry.dofs", 3 * chart.n_nodes)
    tr.add("isometry.cluster_size", basis.cluster_size)
    tr.add("isometry.modes_kept", len(basis))


def _count_eigh(tr, args, kwargs, result):
    n = args[0].shape[0]
    tr.add("isometry.dense_bytes", 2 * 8 * n * n)
    tr.add("isometry.eigh_flops", (34.0 / 3.0) * n ** 3)


def _count_minimize(tr, args, kwargs, res):
    tr.add("minimize.iterations", res.iterations)
    tr.add("minimize.cap_hits", int(bool(res.flagged)))
    tr.add("minimize.gradient_norm", res.gradient_norm)
    tr.add("minimize.reduced_modes", int(res.coefficients.size))


def _count_projection(tr, args, kwargs, res):
    tr.add("membrane.dictionary_columns", res.n_generators)


def _count_energy_3d(tr, args, kwargs, res):
    t_quad = kwargs.get("t_quad", args[3] if len(args) > 3 else 4)
    tr.add("gammacheck.node_evals", args[0].chart.n_nodes * t_quad)


def _count_rotation_set(tr, args, kwargs, res):
    tr.add("functional.candidates", len(res.candidates))


def _count_write(tr, args, kwargs, res):
    tr.add("cli.bytes_written", os.path.getsize(args[0]))


COUNTERS = {
    "isometry.isometry_basis": _count_basis,
    "minimize.minimize_J": _count_minimize,
    "minimize.minimize_quadratic": _count_minimize,
    "membrane.project_to_B": _count_projection,
    "gammacheck.energy_3d": _count_energy_3d,
    "functional.rotation_set": _count_rotation_set,
    "cli.write_json": _count_write,
    "cli.write_field_csv": _count_write,
}


# ---------------------------------------------------------------------------
# per-layer metrics from a pass's spans
# ---------------------------------------------------------------------------

def self_times(spans):
    """Duration minus the time covered by direct children, per span.

    Children of one span run sequentially (single-threaded calls), so
    their union is their sum."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _totals(spans, selfs):
    dur, slf, calls = {}, {}, {}
    for s, st in zip(spans, selfs):
        dur[s[0]] = dur.get(s[0], 0.0) + (s[2] - s[1])
        slf[s[0]] = slf.get(s[0], 0.0) + st
        calls[s[0]] = calls.get(s[0], 0) + 1
    return dur, slf, calls


def layer_metrics(spans, counts, wall_s):
    """Per-layer metric values of one traced pass: name -> (value, unit)."""
    selfs = self_times(spans)
    dur, slf, calls = _totals(spans, selfs)
    d = lambda *names: sum(dur.get(n, 0.0) for n in names)
    c = lambda *names: sum(calls.get(n, 0) for n in names)
    k = lambda name: counts.get(name, 0)
    m = {}
    m["isometry.basis_s"] = (d("isometry.isometry_basis"), "s")
    m["isometry.basis_self_s"] = (slf.get("isometry.isometry_basis", 0.0), "s")
    m["isometry.eigh_s"] = (d("isometry.eigh"), "s")
    m["isometry.assembly_s"] = (d("isometry.membrane_strain_operator",
                                  "isometry.sobolev_mass_matrix"), "s")
    m["isometry.extend_A_calls"] = (c("isometry.extend_A"), "count")
    m["isometry.extend_A_s"] = (d("isometry.extend_A"), "s")
    m["isometry.bending_form_calls"] = (c("isometry.bending_form"), "count")
    m["isometry.dofs"] = (k("isometry.dofs"), "count")
    m["isometry.cluster_size"] = (k("isometry.cluster_size"), "count")
    m["isometry.modes_kept"] = (k("isometry.modes_kept"), "count")
    cl = k("isometry.cluster_size")
    m["isometry.keep_ratio"] = (k("isometry.modes_kept") / cl if cl else 0.0,
                                "ratio")
    m["isometry.dense_bytes"] = (k("isometry.dense_bytes"), "B")
    m["isometry.eigh_flops"] = (k("isometry.eigh_flops"), "flop")

    m["minimize.J_s"] = (d("minimize.minimize_J"), "s")
    m["minimize.quadratic_s"] = (d("minimize.minimize_quadratic"), "s")
    for name in ("iterations", "cap_hits", "reduced_modes"):
        m["minimize." + name] = (k("minimize." + name), "count")
    m["minimize.gradient_norm"] = (k("minimize.gradient_norm"), "1")

    m["membrane.solve_s"] = (d("membrane.solve_revolution_membrane"), "s")
    m["membrane.project_s"] = (d("membrane.project_to_B"), "s")
    m["membrane.dictionary_columns"] = (k("membrane.dictionary_columns"),
                                        "count")
    m["geometry.build_chart_s"] = (d("geometry.build_chart"), "s")
    m["geometry.frame_form_calls"] = (c("geometry.frame_form"), "count")
    m["geometry.frame_form_s"] = (d("geometry.frame_form"), "s")

    m["gammacheck.ansatz_s"] = (d("gammacheck.build_ansatz"), "s")
    e3 = d("gammacheck.energy_3d")
    m["gammacheck.energy_3d_s"] = (e3, "s")
    nodes = k("gammacheck.node_evals")
    m["gammacheck.node_evals"] = (nodes, "count")
    m["gammacheck.node_evals_per_s"] = (nodes / e3 if e3 else 0.0, "1/s")
    m["material.w_density_s"] = (d("material.w_density"), "s")
    m["material.w_density_calls"] = (c("material.w_density"), "count")
    m["material.q2_relax_s"] = (d("material.q2_relax"), "s")

    m["functional.rotation_set_s"] = (d("functional.rotation_set"), "s")
    m["functional.candidates"] = (k("functional.candidates"), "count")
    m["functional.load_work_calls"] = (c("functional.load_work"), "count")
    m["functional.total_I_s"] = (d("functional.total_I"), "s")
    apply = [n for n in calls if n.startswith("operators.")
             and n.endswith("_apply")]
    m["operators.apply_calls"] = (c(*apply), "count")
    m["operators.apply_s"] = (d(*apply), "s")

    for cmd in CLI_COMMANDS:
        m["cli.%s_s" % cmd] = (d("cli.run:" + cmd), "s")
    m["cli.write_s"] = (d("cli.write_json", "cli.write_field_csv"), "s")
    m["cli.bytes_written"] = (k("cli.bytes_written"), "B")

    # share of the pass covered by module spans below the CLI dispatch
    dispatch = sum(st for s, st in zip(spans, selfs)
                   if s[0].startswith("cli.run") or s[0].startswith("cli.cmd_"))
    outside = wall_s - sum(s[2] - s[1] for s in spans if s[3] < 0)
    m["trace.span_coverage"] = ((wall_s - dispatch - outside) / wall_s
                                if wall_s > 0 else 0.0, "ratio")
    return m


CLI_COMMANDS = ("surface", "isometries", "membrane", "energy", "minimize",
                "gamma-check")
