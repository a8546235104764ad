"""Span tracer for the benchmark's traced run.

``Tracer.installed()`` wraps every public function of the layer modules
(``mapcore``, ``markov``, ``ensemble``, ``fluctuation``, ``transport``) plus
``cli.main``, and rebinds every name in the ``bakerlab`` package that refers
to one of them.  Modules import each other's functions by name (for example
``fluctuation.lambda_segment_means`` and ``ensemble.step_arrays``), so
patching only the defining module would miss most calls.

Spans nest.  A span's self time is its duration minus the time its direct
child spans cover; the self time is credited to the span's layer and to the
function through which that layer was entered, so ``markov.dp_s`` holds all
markov work done under ``contraction_sum_distribution``.  Generator
functions (``ensemble.evolve``) and methods of classes are not wrapped:
their work counts towards the layer that iterates or calls them.

Counts marked "computed" are derived from the call arguments, not measured,
and repeat exactly for equal inputs.

Metrics of ``Tracer.metrics()``:

    <layer>.self_s                self time of the layer's spans
    cli.commands                  calls of cli.main
    mapcore.step_arrays_s, _calls self time and calls of the with-y step kernel
    ensemble.calls                entries into ensemble from another layer
    ensemble.member_steps         n_ens x (burn_in + n_iter) of each evolving entry (computed)
    ensemble.ns_per_member_step   self time under evolving entries per member-step
    ensemble.kept_step_ratio      n_ens x n_iter over member_steps (computed)
    ensemble.working_set_bytes    largest coordinate state (computed)
    markov.dp_s, markov.other_s   markov self time under / outside contraction_sum_distribution
    markov.dp_calls, dp_atoms     DP calls and the atoms they return
    markov.dp_state_bytes         largest DP state array (computed)
    fluctuation.values_binned     exact atoms or MC segment means binned by estimate_pi
    fluctuation.admissible_pairs  (+p, -p) cell pairs used by fr_check
    transport.member_steps        n_ens x (burn-in + n_iter) of green_kubo_estimate (computed)
    transport.ns_per_member_step  transport self time per member-step
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("mapcore", "markov", "ensemble", "fluctuation", "transport")
FLOAT_BYTES = 8

# ensemble functions that evolve an ensemble -> whether they also evolve y
_EVOLVING = {
    "empirical_density": True,
    "final_state": True,
    "measure_estimate": True,
    "region_sequences": False,
    "transition_counts": False,
    "lambda_segment_means": False,
    "odd_observable_mean": False,
}


def ensemble_state_bytes(n_ens: int, with_y: bool) -> int:
    """Coordinate state the step kernel rewrites every step (computed)."""
    return n_ens * FLOAT_BYTES * (2 if with_y else 1)


def dp_state_bytes(ell: float, q: float, n: int) -> int:
    """Bytes of one DP state array of ``contraction_sum_distribution``
    (computed): none when every rate is 0, (4, 2n+1) float64 values for the
    lattice DP on the q = 0 and q = 1/2 - 2 ell families, whose rates are
    (-c, 0, 0, c) and (0, c, -c, 0), else (4, n+1, n+1, n+1) for the
    generic DP."""
    from bakerlab.mapcore import MapParams, contraction_rates

    r = contraction_rates(MapParams(ell=ell, q=q))
    if not r.any():
        return 0
    tiny = abs(r) <= 1e-12
    if (tiny[1] and tiny[2] and abs(r[0] + r[3]) <= 1e-12) or (tiny[0] and tiny[3] and abs(r[1] + r[2]) <= 1e-12):
        return 4 * (2 * n + 1) * FLOAT_BYTES
    return 4 * (n + 1) ** 3 * FLOAT_BYTES


class _Span:
    __slots__ = ("layer", "entry", "start", "child_s")

    def __init__(self, layer: str, entry: str, start: float):
        self.layer = layer
        self.entry = entry
        self.start = start
        self.child_s = 0.0


class Tracer:
    """In-memory spans, reduced on the fly to per-layer self times and
    counts; ``metrics()`` turns them into the per-layer metric table."""

    def __init__(self):
        self._stack: list[_Span] = []
        self.entry_self_s: defaultdict[tuple[str, str], float] = defaultdict(float)
        self.calls: Counter[tuple[str, str]] = Counter()
        self.entries: Counter[str] = Counter()
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._paused = False
        self._hooks = {
            **{("ensemble", name): self._on_ensemble for name in _EVOLVING},
            ("markov", "contraction_sum_distribution"): self._on_dp,
            ("fluctuation", "estimate_pi"): self._on_estimate_pi,
            ("fluctuation", "fr_check"): self._on_fr_check,
            ("transport", "green_kubo_estimate"): self._on_green_kubo,
        }

    # ------------------------------------------------------------ spans

    def _wrap(self, layer: str, name: str, fn):
        stack = self._stack
        clock = time.perf_counter
        hook = self._hooks.get((layer, name))
        signature = inspect.signature(fn) if hook else None

        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            entered = parent is None or parent.layer != layer
            span = _Span(layer, name if entered else parent.entry, clock())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                dur = clock() - span.start
                own = dur - span.child_s
                self.entry_self_s[(layer, span.entry)] += own
                if parent is not None:
                    parent.child_s += dur
            self.calls[(layer, name)] += 1
            if entered:
                self.entries[layer] += 1
            if hook is not None:
                # hooks may call bakerlab themselves; keep that out of the trace
                self._paused = True
                try:
                    hook(name, entered, signature.bind(*args, **kwargs).arguments, result)
                finally:
                    self._paused = False
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layer functions for the duration of the block."""
        import bakerlab.cli

        wrappers = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = sys.modules[f"bakerlab.{layer}"]
            for name, obj in vars(module).items():
                if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__ or inspect.isgeneratorfunction(obj):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(layer, name, obj))
        main = bakerlab.cli.main
        wrappers[id(main)] = (main, self._wrap("cli", "main", main))

        patched = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "bakerlab" and not mod_name.startswith("bakerlab."):
                continue
            for name, obj in list(vars(module).items()):
                original, wrapper = wrappers.get(id(obj), (None, None))
                if original is obj:
                    setattr(module, name, wrapper)
                    patched.append((module, name, obj))
        try:
            yield self
        finally:
            for module, name, obj in patched:
                setattr(module, name, obj)

    # ------------------------------------------------------------ counts

    def _on_ensemble(self, name, entered, arguments, result):
        if not entered:
            return
        config = arguments["config"]
        self.counts["ensemble.member_steps"] += config.n_ens * (config.burn_in + config.n_iter)
        self.counts["ensemble.kept_steps"] += config.n_ens * config.n_iter
        ws = ensemble_state_bytes(config.n_ens, _EVOLVING[name])
        self.counts["ensemble.working_set_bytes"] = max(self.counts["ensemble.working_set_bytes"], ws)

    def _on_dp(self, name, entered, arguments, result):
        self.counts["markov.dp_calls"] += 1
        self.counts["markov.dp_atoms"] += len(result.sums)
        ws = dp_state_bytes(arguments["ell"], arguments["q"], arguments["n"])
        self.counts["markov.dp_state_bytes"] = max(self.counts["markov.dp_state_bytes"], ws)

    def _on_estimate_pi(self, name, entered, arguments, result):
        binned = result.n_segments if result.source == "mc" else len(arguments["source"].sums)
        self.counts["fluctuation.values_binned"] += binned

    def _on_fr_check(self, name, entered, arguments, result):
        self.counts["fluctuation.admissible_pairs"] += len(result.p)

    def _on_green_kubo(self, name, entered, arguments, result):
        config = arguments["config"]
        burn = 0 if config.ensemble_mode == "microcanonical-equilibrium" else config.burn_in
        self.counts["transport.member_steps"] += config.n_ens * (burn + config.n_iter)

    # ------------------------------------------------------------ report

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far."""
        c = self.counts
        self_s = defaultdict(float)
        for (layer, _), seconds in self.entry_self_s.items():
            self_s[layer] += seconds
        ens_steps = c["ensemble.member_steps"]
        tp_steps = c["transport.member_steps"]
        dp_s = self.entry_self_s[("markov", "contraction_sum_distribution")]
        evolve_s = sum(self.entry_self_s[("ensemble", name)] for name in _EVOLVING)
        return {
            "cli.self_s": self_s["cli"],
            "cli.commands": self.calls[("cli", "main")],
            "mapcore.self_s": self_s["mapcore"],
            "mapcore.step_arrays_s": self.entry_self_s[("mapcore", "step_arrays")],
            "mapcore.step_arrays_calls": self.calls[("mapcore", "step_arrays")],
            "ensemble.self_s": self_s["ensemble"],
            "ensemble.calls": self.entries["ensemble"],
            "ensemble.member_steps": ens_steps,
            "ensemble.ns_per_member_step": 1e9 * evolve_s / ens_steps if ens_steps else 0.0,
            "ensemble.kept_step_ratio": c["ensemble.kept_steps"] / ens_steps if ens_steps else 0.0,
            "ensemble.working_set_bytes": c["ensemble.working_set_bytes"],
            "markov.dp_s": dp_s,
            "markov.dp_calls": c["markov.dp_calls"],
            "markov.dp_atoms": c["markov.dp_atoms"],
            "markov.dp_state_bytes": c["markov.dp_state_bytes"],
            "markov.other_s": self_s["markov"] - dp_s,
            "fluctuation.self_s": self_s["fluctuation"],
            "fluctuation.values_binned": c["fluctuation.values_binned"],
            "fluctuation.admissible_pairs": c["fluctuation.admissible_pairs"],
            "transport.self_s": self_s["transport"],
            "transport.member_steps": tp_steps,
            "transport.ns_per_member_step": 1e9 * self_s["transport"] / tp_steps if tp_steps else 0.0,
        }


def import_times(stderr: str) -> dict[str, float]:
    """Import self time per top-level package, in seconds, from the
    ``-X importtime`` lines of an interpreter's stderr."""
    totals = defaultdict(float)
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        package = fields[2].strip().split(".", 1)[0]
        totals[package] += int(fields[0]) * 1e-6
    return {
        "setup.numpy_s": totals["numpy"],
        "setup.scipy_s": totals["scipy"],
        "setup.bakerlab_s": totals["bakerlab"],
    }
