"""Run one flagcoh CLI job with every layer's entry points timed.

Usage: python trace_job.py STATS.json FLAGCOH-ARGS...

Each entry point is wrapped at every flagcoh module attribute bound to it,
because ``from .x import y`` copies the binding into each importing
module.  A layer's self time is its time minus the time of wrapped calls
made inside it.  After the job, the wrapped functions' ``lru_cache``
statistics are read too.  The stats go to STATS.json; the CLI's own
output and exit code are passed through unchanged.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (layer name, module, function)
LAYERS = (
    ("schur.lr_raw", "flagcoh.schur", "_lr_raw"),
    ("schur.tensor_schur", "flagcoh.schur", "tensor_schur"),
    ("flagvar.split_partition", "flagcoh.flagvar", "_split_partition"),
    ("flagvar.make_monomial", "flagcoh.flagvar", "make_monomial"),
    ("flagvar.tensor", "flagcoh.flagvar", "tensor"),
    ("flagvar.dual", "flagcoh.flagvar", "dual"),
    ("flagvar.minimal_base", "flagcoh.flagvar", "minimal_base"),
    ("flagvar.expand_monomial", "flagcoh.flagvar", "_expand_monomial"),
    ("cohomology.one_shot", "flagcoh.cohomology", "cohomology"),
    ("cohomology.stepwise", "flagcoh.cohomology", "cohomology_stepwise"),
    ("cohomology.ext_best", "flagcoh.cohomology", "ext_groups_best"),
    ("weights.bbw_resolve", "flagcoh.weights", "bbw_resolve"),
    ("kapranov.classify", "flagcoh.kapranov", "classify_vanishing"),
    ("twists.sigma_pullback", "flagcoh.flagvar", "sigma_pullback"),
    ("toric.line_bundle", "flagcoh.toric", "line_bundle_cohomology"),
    ("toric.orbit_check", "flagcoh.toric", "galois_orbit_check"),
    ("cli.emit", "flagcoh.cli", "_emit"),
)


class Layer:
    def __init__(self, name, func):
        self.name = name
        self.func = func
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0  # outermost calls only, so recursion is not double counted
        self.depth = 0
        self.exact = 0  # stepwise: results graded exact
        self.fallback = 0  # ext_best: calls that fell back to the stepwise route
        self.sites = 0


def _wrap(layer: Layer, stack: list, stepwise: Layer | None):
    func = layer.func
    clock = time.perf_counter

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        stepwise_before = stepwise.calls if stepwise is not None else 0
        layer.depth += 1
        stack.append(0.0)
        start = clock()
        try:
            result = func(*args, **kwargs)
        finally:
            elapsed = clock() - start
            layer.self_s += elapsed - stack.pop()
            layer.depth -= 1
            if layer.depth == 0:
                layer.total_s += elapsed
            if stack:
                stack[-1] += elapsed
            layer.calls += 1
        if layer.name == "cohomology.stepwise" and result.grade == "exact":
            layer.exact += 1
        if stepwise is not None and stepwise.calls > stepwise_before:
            layer.fallback += 1
        return result

    return wrapper


def install() -> list:
    """Wrap every layer at every flagcoh module attribute bound to it."""
    import importlib

    importlib.import_module("flagcoh.cli")  # imports every module of the package
    modules = [
        m for name, m in sorted(sys.modules.items())
        if name == "flagcoh" or name.startswith("flagcoh.")
    ]
    layers = []
    for name, module, attr in LAYERS:
        func = getattr(sys.modules[module], attr, None)
        layers.append(Layer(name, func))
    by_name = {layer.name: layer for layer in layers}
    stack: list = []
    for layer in layers:
        if layer.func is None:
            continue
        stepwise = by_name["cohomology.stepwise"] if layer.name == "cohomology.ext_best" else None
        wrapper = _wrap(layer, stack, stepwise)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is layer.func:
                    setattr(module, attr, wrapper)
                    layer.sites += 1
    return layers


def stats(layers, wall_s: float) -> dict:
    out = {"wall_s": wall_s, "layers": {}}
    for layer in layers:
        entry = {
            "sites": layer.sites,
            "calls": layer.calls,
            "self_s": layer.self_s,
            "total_s": layer.total_s,
            "exact": layer.exact,
            "fallback": layer.fallback,
        }
        info = getattr(layer.func, "cache_info", None)
        if info is not None:
            ci = info()
            entry.update(hits=ci.hits, misses=ci.misses, entries=ci.currsize)
        out["layers"][layer.name] = entry
    return out


def main(argv) -> int:
    stats_path, cli_args = argv[0], argv[1:]
    layers = install()
    from flagcoh import cli

    start = time.perf_counter()
    try:
        code = cli.main(cli_args)
    finally:
        wall_s = time.perf_counter() - start
        sys.stdout.flush()
        with open(stats_path, "w") as fh:
            json.dump(stats(layers, wall_s), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
