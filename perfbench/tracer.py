"""Outside-in layer trace: wrap the package's public functions in place.

The package imports its functions by name (``from .linalg import
op_norm``), so every module that imports one holds its own reference.
``Tracer.install`` finds every module-level binding of each traced
function across all ``tetrablock`` modules and replaces each with one
wrapper; ``uninstall`` puts the originals back.  Wrappers pass
arguments and return values through untouched, so traced results are
bit for bit the untraced ones.

The guard is strict on purpose: a traced function that is missing, is
no longer a plain function of its module, or is referenced from a
place a wrapper cannot reach (a container or a default argument)
raises ``StaleTraceError`` instead of silently dropping out of the
measurement.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from dataclasses import dataclass

import numpy as np

PACKAGE = "tetrablock"

TRACED = (
    "cli.main",
    "counterexample.run_pipeline",
    "counterexample.build_witness",
    "counterexample.case_inequality_check",
    "counterexample.cf_convergence_study",
    "counterexample.pipeline_report_to_json",
    "contractions.falsify_spectral_set",
    "contractions.violation_certificate",
    "contractions.extract_fundamental",
    "contractions.check_obstruction_hypotheses",
    "contractions.dilation_obstruction",
    "contractions.commutation_defect",
    "contractions.check_tetra_unitary",
    "poly3.eval_operator",
    "poly3.eval_scalar_many",
    "poly3.random_poly",
    "poly3.cf_empirical_inf",
    "geometry.sup_on_closure",
    "geometry.defining_abs_min",
    "geometry.classify_point",
    "linalg.op_norm",
    "linalg.herm_eig",
    "linalg.sqrt_psd",
    "linalg.numerical_radius",
    "models.random_symbol_pair",
    "models.build_hardy_model",
    "models.build_circulant_model",
    "models.interior_identity_report",
    "models.recover_fundamental",
)

# Work counters read from call arguments and results.
COUNTERS = (
    "poly3.eval_scalar_many.points",
    "geometry.sup_on_closure.samples",
    "poly3.eval_operator.monomials",
    "contractions.falsify_spectral_set.trials",
    "contractions.violation_certificate.refined",
)


class StaleTraceError(RuntimeError):
    """A traced function can no longer be found or wrapped everywhere."""


@dataclass
class Stat:
    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0


def package_modules() -> list:
    """Import and return every module of the package except ``__main__``."""
    pkg = importlib.import_module(PACKAGE)
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        if info.name != "__main__":
            mods.append(importlib.import_module(f"{PACKAGE}.{info.name}"))
    return mods


def _holds(value, target) -> bool:
    if isinstance(value, dict):
        return any(v is target for v in value.values())
    if isinstance(value, (list, tuple, set, frozenset)):
        return any(v is target for v in value)
    return False


class Tracer:
    """Per-function call counts, inclusive and self time, and work counters."""

    def __init__(self):
        self.stats = {key: Stat() for key in TRACED}
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = []  # child time accumulated under each open span
        self._in_sup = 0  # open sup_on_closure spans
        self._sup_points = 0  # points evaluated inside sup_on_closure
        self._patches = []  # (namespace dict, name, original)

    # -- recording ---------------------------------------------------------

    def _call(self, key, fn, hook, args, kwargs):
        children = [0.0]
        self._stack.append(children)
        if key == "geometry.sup_on_closure":
            self._in_sup += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            busy = time.perf_counter() - t0
            self._stack.pop()
            if key == "geometry.sup_on_closure":
                self._in_sup -= 1
            stat = self.stats[key]
            stat.calls += 1
            stat.busy += busy
            stat.self_time += busy - children[0]
            if self._stack:
                self._stack[-1][0] += busy
        if hook is not None:
            hook(self, args, kwargs, result)
        return result

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every traced function, or raise."""
        if self._patches:
            raise StaleTraceError("tracer is already installed")
        modules = package_modules()
        by_name = {m.__name__: m for m in modules}
        plan = []
        for key in TRACED:
            mod_name, fn_name = key.split(".")
            home = by_name.get(f"{PACKAGE}.{mod_name}")
            fn = getattr(home, fn_name, None) if home else None
            if not inspect.isfunction(fn) or hasattr(fn, "__wrapped__"):
                raise StaleTraceError(f"{key}: not a plain function")
            if fn.__module__ != home.__name__:
                raise StaleTraceError(
                    f"{key}: now defined in {fn.__module__}, not {home.__name__}"
                )
            plan.append((key, fn))
        originals = {id(fn) for _, fn in plan}
        for mod in modules:
            for name, value in vars(mod).items():
                for key, fn in plan:
                    if _holds(value, fn):
                        raise StaleTraceError(
                            f"{key} is held in {mod.__name__}.{name}, "
                            "which a wrapper cannot reach"
                        )
                if inspect.isfunction(value) and value.__module__ == mod.__name__:
                    defaults = (value.__defaults__ or ()) + tuple(
                        (value.__kwdefaults__ or {}).values()
                    )
                    if any(id(d) in originals for d in defaults):
                        raise StaleTraceError(
                            f"{mod.__name__}.{name} captures a traced "
                            "function in a default argument"
                        )
        for key, fn in plan:
            wrapper = self._wrap(key, fn)
            for mod in modules:
                ns = vars(mod)
                for name, value in list(ns.items()):
                    if value is fn:
                        self._patches.append((ns, name, fn))
                        ns[name] = wrapper

    def uninstall(self) -> None:
        for ns, name, fn in reversed(self._patches):
            ns[name] = fn
        self._patches.clear()

    def _wrap(self, key, fn):
        hook = _HOOKS.get(key)
        if key == "geometry.sup_on_closure":
            hook = functools.partial(_sup_hook, inspect.signature(fn))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(key, fn, hook, args, kwargs)

        return wrapper

    # -- reporting -------------------------------------------------------

    def metrics(self, n_ops: int) -> dict:
        """Per-op layer metrics: ``<module>.<function>.calls|busy_s|self_s``."""
        n = max(n_ops, 1)
        out = {}
        for key, stat in self.stats.items():
            out[f"{key}.calls"] = (stat.calls / n, "count/op")
            out[f"{key}.busy_s"] = (stat.busy / n, "s/op")
            out[f"{key}.self_s"] = (stat.self_time / n, "s/op")
        for key in COUNTERS:
            out[key] = (self.counts[key] / n, "count/op")
        points = self._sup_points
        samples = self.counts["geometry.sup_on_closure.samples"]
        share = 1.0 - samples / points if points else 0.0
        out["geometry.sup_on_closure.refine_share"] = (share, "frac")
        return out

    def self_total(self) -> float:
        return sum(stat.self_time for stat in self.stats.values())


def _points_hook(tracer, args, kwargs, result):
    n = int(np.size(result))
    tracer.counts["poly3.eval_scalar_many.points"] += n
    if tracer._in_sup:
        tracer._sup_points += n


def _sup_hook(signature, tracer, args, kwargs, result):
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    tracer.counts["geometry.sup_on_closure.samples"] += int(
        bound.arguments["n_samples"]
    )


def _monomials_hook(tracer, args, kwargs, result):
    p = args[0] if args else kwargs["p"]
    tracer.counts["poly3.eval_operator.monomials"] += len(p.coeffs)


def _trials_hook(tracer, args, kwargs, result):
    tracer.counts["contractions.falsify_spectral_set.trials"] += result.trials_run


def _refined_hook(tracer, args, kwargs, result):
    # The second, ten-times-larger sup runs exactly when the first
    # estimate leaves the operator norm above it by the margin.
    if result.lhs > result.sup_first + result.margin:
        tracer.counts["contractions.violation_certificate.refined"] += 1


_HOOKS = {
    "poly3.eval_scalar_many": _points_hook,
    "poly3.eval_operator": _monomials_hook,
    "contractions.falsify_spectral_set": _trials_hook,
    "contractions.violation_certificate": _refined_hook,
}
