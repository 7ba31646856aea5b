"""In-memory spans and counters around starsym's public functions.

The recorder never edits starsym's source: `install` rebinds each public
function, in its own module and in every starsym module that imported
it by name (for example `symmetry_detector.make_frame`), to a wrapper
that records a span; `uninstall` restores the originals.  Bodies the
benchmark builds get their `evaluate` and `gradient` callables wrapped
too.  A span is [name, start, end, parent index, operation id]; self
time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import collections
import json
import math
import time

HYPERPLANE = "slice_transforms.hyperplane_section"

# public functions per module; each span is named "<module>.<function>"
_FUNCTIONS = {
    "sphere_geom": ("make_frame", "embed", "sphere_rule", "equator_rule"),
    "star_body": ("to_scalar_field", "hyperplane_profile_field"),
    "slice_transforms": ("equator_transform", "hyperplane_section", "slice_integral",
                         "conical_section", "section_curve", "derivative_at_zero"),
    "symmetry_detector": ("calibrate", "sweep", "detect"),
    "harmonics": ("real_harmonic", "multiplier_table", "estimate_multiplier"),
    "oracle": ("mc_hyperplane_section", "mc_cone_section"),
    "verify": ("run_checks",),
}
# body constructors, which all share the span "star_body.construct"
_CONSTRUCTORS = ("body_ball", "body_shifted_ball", "body_ellipsoid",
                 "body_harmonic_perturbed_ball", "scale_body", "strip_gradient",
                 "rotate_body")
_CACHED = ("symmetry_detector.calibrate", "harmonics.real_harmonic")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.op = -1  # -1 marks set-up work, before the first operation
        self._stack = []
        self._active = collections.Counter()
        self._patched = []

    # -- recording -----------------------------------------------------

    def wrap(self, name, fn, after=None, cache=None):
        spans, stack, active = self.spans, self._stack, self._active

        def wrapper(*args, **kwargs):
            misses = cache.cache_info().misses if cache is not None else 0
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.op])
            stack.append(index)
            active[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                active[name] -= 1
                spans[index][1] = start
                spans[index][2] = end
            if cache is not None:
                cold = cache.cache_info().misses > misses
                self.counts[name + ".misses"] += cold
                if cold:
                    self.counts[name + ".cold_s"] += end - start
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_points(self, key):
        def after(args, result):
            shape = getattr(args[0], "shape", (1, 1))
            self.counts[key] += math.prod(shape[:-1])
            if self._active[HYPERPLANE] and key == "eval_points":
                self.counts["hyperplane_evals"] += 1
        return after

    def instrument_body(self, body):
        """Wrap a built body's evaluate/gradient callables in spans."""
        self.counts["bodies"] += 1
        self.counts["fd_bodies"] += body.gradient is None
        # RadialField is frozen; the library's own __post_init__ sets fields the same way
        object.__setattr__(body, "evaluate", self.wrap(
            "star_body.evaluate", body.evaluate, self._count_points("eval_points")))
        if body.gradient is not None:
            object.__setattr__(body, "gradient", self.wrap(
                "star_body.gradient", body.gradient, self._count_points("grad_points")))
        return body

    # -- installing ----------------------------------------------------

    def _rebind(self, modules, original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _rebind_dict(self, table, prefix):
        for key, fn in list(table.items()):
            self._patched.append((table, key, fn))
            table[key] = self.wrap(f"{prefix}.{key}", fn)

    def install(self, cli=None):
        import starsym
        from starsym import (harmonics, oracle, slice_transforms, sphere_geom,
                             star_body, symmetry_detector, verify)
        mods = {"sphere_geom": sphere_geom, "star_body": star_body,
                "slice_transforms": slice_transforms,
                "symmetry_detector": symmetry_detector, "harmonics": harmonics,
                "oracle": oracle, "verify": verify}
        everywhere = [starsym, *mods.values()] + ([cli] if cli is not None else [])
        for mod_name, names in _FUNCTIONS.items():
            for attr in names:
                fn = getattr(mods[mod_name], attr)
                name = f"{mod_name}.{attr}"
                after = None
                if attr == "equator_transform":
                    after = self._count_nodes
                elif mod_name == "oracle":
                    after = self._count_samples
                cache = fn if name in _CACHED else None
                self._rebind(everywhere, fn, self.wrap(name, fn, after, cache))
        for attr in _CONSTRUCTORS:
            fn = getattr(star_body, attr)
            self._rebind(everywhere, fn, self.wrap("star_body.construct", fn))
        # the odd-part probe inside sweep: its probe grid and its evaluations
        probe = "symmetry_detector.odd_probe"
        grid = symmetry_detector.probe_directions
        self._patched.append((symmetry_detector, "probe_directions", grid))
        symmetry_detector.probe_directions = self.wrap(probe, grid)
        odd_part = symmetry_detector.odd_part

        def traced_odd_part(field):
            part = odd_part(field)
            object.__setattr__(part, "evaluate", self.wrap(probe, part.evaluate))
            return part

        self._patched.append((symmetry_detector, "odd_part", odd_part))
        symmetry_detector.odd_part = traced_odd_part
        self._rebind_dict(verify._CHECKS, "verify")
        if cli is not None:
            self._rebind_dict(cli._DISPATCH, "cli")
            build = cli.build_body
            self._patched.append((cli, "build_body", build))
            cli.build_body = lambda *a, **k: self.instrument_body(build(*a, **k))

    def uninstall(self):
        for target, key, original in reversed(self._patched):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patched.clear()

    def _count_nodes(self, args, result):
        self.counts["equator_nodes"] += args[2].size

    def _count_samples(self, args, result):
        self.counts["mc_samples"] += result.samples

    # -- persistence ---------------------------------------------------

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)

    def merge(self, path, op):
        """Add a child process's spans and counts as operation `op`."""
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        base = len(self.spans)
        for name, start, end, parent, _ in data["spans"]:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, op])
        self.counts.update(data["counts"])


def span_totals(spans, ops=None):
    """name -> [calls, total seconds, self seconds], over spans whose
    operation id is in `ops` (all spans when ops is None)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = collections.defaultdict(lambda: [0, 0.0, 0.0])
    for i, (name, start, end, parent, op) in enumerate(spans):
        if ops is None or op in ops:
            t = totals[name]
            t[0] += 1
            t[1] += end - start
            t[2] += end - start - child[i]
    return totals
