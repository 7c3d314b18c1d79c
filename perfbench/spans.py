"""Spans around the public calls into each hill_octant module, recorded from outside.

The tracer replaces module attributes with timing wrappers while a traced
round runs and puts the originals back afterwards, so the library itself is
unchanged and untraced rounds pay nothing.  Several modules import a name
from another module into their own namespace (``design``, ``cluster`` and
``cli`` hold their own ``integrate_batch``, for instance); every such binding
is wrapped, otherwise calls made through it would go unseen.

Spans stay in memory as (name, start, end, parent, lams) tuples; ``lams`` is
the batch size of an ``integrate_batch`` call and 0 elsewhere.  A span's self
time is its duration minus the durations of its direct children, which
never overlap because the workloads are single-threaded.
"""

from __future__ import annotations

import functools
import json
import time

import numpy as np

from hill_octant import bands, cli, cluster, design, halfsolid, monodromy, spectral_matrix
from hill_octant.potential import Potential

# span name -> (public function, modules holding a binding of it)
_TARGETS = {
    "monodromy.integrate_batch": ("integrate_batch", (monodromy, design, cluster, cli)),
    "bands.band_structure": ("band_structure", (bands, halfsolid, design, cluster, cli)),
    "spectral_matrix.hill": ("hill_band_edges", (spectral_matrix,)),
    "spectral_matrix.hill_vectors": ("hill_edges_and_vectors", (spectral_matrix,)),
    "spectral_matrix.galerkin_dirichlet": ("galerkin_dirichlet", (spectral_matrix,)),
    "spectral_matrix.galerkin_neumann": ("galerkin_neumann", (spectral_matrix,)),
    "spectral_matrix.galerkin_dirichlet_vectors": ("galerkin_dirichlet_vectors", (spectral_matrix,)),
    "halfsolid.ac_spectrum": ("ac_spectrum", (halfsolid,)),
    "halfsolid.gap_eigenvalues": ("gap_eigenvalues", (halfsolid, cli)),
    "halfsolid.verify_sqrt_rate": ("verify_sqrt_rate", (halfsolid, cli)),
    "halfsolid.ground_state": ("ground_state_count", (halfsolid,)),
    "halfsolid.wronskian": ("wronskian", (halfsolid, cli)),
    "halfsolid.asymptotic_coefficient": ("asymptotic_coefficient", (halfsolid,)),
    "design.construct": ("construct_model_potential", (design, cli)),
    "design.design_gap_lengths": ("design_gap_lengths", (design, cli)),
    "design.place_states": ("place_states", (design, cli)),
    "design.condition_p_potential": ("condition_p_potential", (design,)),
    "cluster.factor": ("fast_factor_spectrum", (cluster, cli)),
    "cluster.recount": ("perturb_and_recount", (cluster,)),
    "cluster.assemble_2d": ("assemble_2d", (cluster, cli)),
    "cluster.assemble_3d": ("assemble_3d", (cluster, cli)),
    "cluster.count_in_interval": ("count_in_interval", (cluster, cli)),
    "cluster.normalize": ("normalize", (cluster,)),
    "cli.cluster": ("cmd_cluster", (cli,)),
}

GALERKIN = (
    "spectral_matrix.galerkin_dirichlet",
    "spectral_matrix.galerkin_neumann",
    "spectral_matrix.galerkin_dirichlet_vectors",
)


class Tracer:
    """Records spans while installed and enabled; counts Potential.evaluate calls."""

    def __init__(self):
        self.spans: list = []
        self.evaluate_calls = 0
        self.design_iterations = 0
        self.enabled = False
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, name, fn):
        batch = name == "monodromy.integrate_batch"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            lams = int(np.size(args[1] if len(args) > 1 else kwargs["lams"])) if batch else 0
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if name == "design.construct":
                    self.design_iterations += result[3].iterations  # the returned DesignReport
                return result
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, t0, t1, parent, lams)

        return traced

    def install(self) -> None:
        for name, (attr, modules) in _TARGETS.items():
            fn = getattr(modules[0], attr)
            wrapped = self._wrap(name, fn)
            for mod in modules:
                self._saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, wrapped)
        evaluate = Potential.evaluate

        def counted(p, x):
            if self.enabled:
                self.evaluate_calls += 1
            return evaluate(p, x)

        self._saved.append((Potential, "evaluate", evaluate))
        Potential.evaluate = counted

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent, lams in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1, "parent": parent, "lams": lams}))
                fh.write("\n")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures from the recorded spans, keyed by their names in BENCHMARK.json."""
    spans = tracer.spans
    dur = np.array([s[2] - s[1] for s in spans], dtype=float)
    child = np.zeros(len(spans))
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    self_t = dur - child
    names = [s[0] for s in spans]

    def has_ancestor(i, name):
        j = spans[i][3]
        while j >= 0:
            if names[j] == name:
                return True
            j = spans[j][3]
        return False

    def idx(*wanted):
        return [i for i, nm in enumerate(names) if nm in wanted]

    def total(ix, arr=dur):
        return float(sum(arr[i] for i in ix))

    def layer_self(prefix):
        return total([i for i, nm in enumerate(names) if nm.startswith(prefix)], self_t)

    passes = idx("monodromy.integrate_batch")
    lams = sum(spans[i][4] for i in passes)
    mono_s = total(passes)
    bs_calls = idx("bands.band_structure")
    gap_calls = idx("halfsolid.gap_eigenvalues")
    gs_calls = idx("halfsolid.ground_state")
    construct = idx("design.construct")
    factor = idx("cluster.factor")
    hill = idx("spectral_matrix.hill")
    hill_vec = idx("spectral_matrix.hill_vectors")
    galerkin = idx(*GALERKIN)

    def per(count, base):
        return count / len(base) if base else 0.0

    return {
        "monodromy.passes": len(passes),
        "monodromy.lams": lams,
        "monodromy.scalar_passes": sum(1 for i in passes if spans[i][4] == 1),
        "monodromy.s": mono_s,
        "monodromy.ms_per_pass": 1e3 * mono_s / len(passes) if passes else 0.0,
        "monodromy.us_per_lam": 1e6 * mono_s / lams if lams else 0.0,
        "potential.evaluate_calls": tracer.evaluate_calls,
        "bands.calls": len(bs_calls),
        "bands.self_s": layer_self("bands."),
        "bands.passes_per_call": per(
            sum(1 for i in passes if has_ancestor(i, "bands.band_structure")), bs_calls
        ),
        "spectral_matrix.hill.calls": len(hill),
        "spectral_matrix.hill.s": total(hill),
        "spectral_matrix.hill_vectors.calls": len(hill_vec),
        "spectral_matrix.hill_vectors.s": total(hill_vec),
        "spectral_matrix.galerkin.calls": len(galerkin),
        "spectral_matrix.galerkin.s": total(galerkin),
        "halfsolid.gap_eigenvalues.calls": len(gap_calls),
        "halfsolid.gap_eigenvalues.s": total(gap_calls),
        "halfsolid.passes_per_tau": per(
            sum(1 for i in passes if has_ancestor(i, "halfsolid.gap_eigenvalues")), gap_calls
        ),
        "halfsolid.ground_state.calls": len(gs_calls),
        "halfsolid.ground_state.s": total(gs_calls),
        "halfsolid.self_s": layer_self("halfsolid."),
        "design.construct.s": total(construct),
        "design.iterations": tracer.design_iterations,
        "design.self_s": layer_self("design."),
        "cluster.factor.calls": len(factor),
        "cluster.factor.s": total(factor),
        "cluster.recount.s": total(idx("cluster.recount")),
        "cluster.self_s": layer_self("cluster."),
        "cli.cluster.s": total(idx("cli.cluster")),
    }
