"""Per-layer timing of weylinv, taken from outside the package.

`install()` wraps every public module-level function of each layer
module (roots, groups, algebra, forms, cosets, basis) and rebinds the
wrapper under every name a `weylinv` module holds the original by, so
that `from .forms import form_of_linear_action` in basis is traced as
well as `forms.form_of_linear_action`.  Nothing under `src/` changes.

Each wrapped call is a span.  A layer's self time is the sum of its
spans' durations minus the time their child spans cover; time outside
every span belongs to the command-line frontend (`cli.self_s`).
Methods are not wrapped: a call to a method (say `KInvariant.__mul__`)
counts toward the layer of the function that made it.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("roots", "groups", "algebra", "forms", "cosets", "basis")

# metric -> functions whose outermost calls it times, end to end
TIMERS = {
    "roots.build_s": ("roots.build_root_system",),
    "groups.group_order_s": ("groups.group_order",),
    "groups.omega_classes_s": ("groups.omega_classes",),
    "groups.standard_frames_s": ("groups.standard_frames",),
    "forms.linear_s": ("forms.form_of_linear_action",),
    "forms.permutation_s": ("forms.form_of_permutation_action",),
    "forms.sw_s": ("forms.total_sw", "forms.sw_class", "forms.modified_sw"),
    "cosets.full_check_s": ("cosets.full_check",),
    "algebra.independence_s": (
        "algebra.linear_independence",
        "algebra.stacked_independence",
    ),
    "algebra.substitute_s": ("algebra.substitute",),
    "basis.upstream_table_s": ("basis.upstream_table",),
    "basis.constrained_dim_s": ("basis.constrained_dim",),
    "basis.normalizer_families_s": ("basis.normalizer_families",),
}

# metric -> function whose calls it counts
CALLS = {
    "roots.build_calls": "roots.build_root_system",
    "forms.linear_calls": "forms.form_of_linear_action",
    "forms.permutation_calls": "forms.form_of_permutation_action",
    "cosets.full_check_calls": "cosets.full_check",
    "algebra.substitute_calls": "algebra.substitute",
}


def _io_counters() -> tuple[int, int, int]:
    """Bytes this process has read and written through system calls, and
    the bytes this read of the counters adds to the first."""
    with open("/proc/self/io") as fh:
        text = fh.read()
    fields = dict(line.split(":") for line in text.splitlines())
    return int(fields["rchar"]), int(fields["wchar"]), len(text)


def system_key(label: str, rank: int) -> str:
    """Metric-safe system name: E8, B6, I2-4."""
    return f"I2-{rank}" if label == "I2" else f"{label}{rank}"


class _Hooks:
    """Counts recorded at the boundary of specific functions."""

    names = (
        "cosets.build_coset_space",
        "cosets.full_check",
        "groups.enumerate_subgroup",
        "basis.verify_basis",
    )

    def __init__(self, tracer: "Tracer"):
        self.tr = tracer

    def before_build_coset_space(self, bound):
        return _io_counters()

    def after_build_coset_space(self, bound, result, dt, io_before):
        rchar, wchar, _ = _io_counters()
        read = rchar - io_before[0] - io_before[2]
        written = wchar - io_before[1]
        tr = self.tr
        # a call that wrote nothing to its cache dir was served from it;
        # one without a cache dir bypasses the cache and always builds
        if bound.arguments.get("cache_dir") is not None and written == 0:
            tr.counts["cosets.cache_hits"] += 1
            tr.counts["cosets.cache_bytes_read"] += read
            tr.times["cosets.build_hit_s"] += dt
        else:
            tr.counts["cosets.cache_misses"] += 1
            tr.counts["cosets.cosets_built"] += result.size
            tr.counts["cosets.cache_bytes_written"] += written
            tr.times["cosets.build_miss_s"] += dt

    def after_full_check(self, bound, result, dt, _):
        if result is not bound.arguments["space"].certificate:
            self.tr.counts["cosets.certificates_computed"] += 1

    def after_enumerate_subgroup(self, bound, result, dt, _):
        self.tr.counts["groups.elements_enumerated"] += result.order or 0

    def after_verify_basis(self, bound, result, dt, _):
        key = system_key(bound.arguments["type_label"], bound.arguments["rank"])
        self.tr.times[f"basis.verify_s.{key}"] += dt
        self.tr.counts["basis.checks_failed"] += sum(
            c.status != "pass" for c in result.checks
        )


class Tracer:
    def __init__(self) -> None:
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.times: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.top_s = 0.0  # summed duration of spans with no parent span
        self.wrapped: set[str] = set()
        self._open: list[float] = []  # child time of each open span
        self._depth: Counter[str] = Counter()
        self._hooks = _Hooks(self)

    def wrap(self, layer: str, name: str, fn):
        qual = f"{layer}.{name}"
        timers = [m for m, fns in TIMERS.items() if qual in fns]
        calls = [m for m, f in CALLS.items() if f == qual]
        before = getattr(self._hooks, f"before_{name}", None)
        after = getattr(self._hooks, f"after_{name}", None)
        signature = inspect.signature(fn) if before or after else None
        open_spans, depth, self_s = self._open, self._depth, self.self_s
        times, counts = self.times, self.counts
        perf = time.perf_counter

        def traced(*args, **kwargs):
            for m in calls:
                counts[m] += 1
            for m in timers:
                depth[m] += 1
            bound = note = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if before is not None:
                    note = before(bound)
            open_spans.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                self_s[layer] += dt - open_spans.pop()
                if open_spans:
                    open_spans[-1] += dt
                else:
                    self.top_s += dt
                for m in timers:
                    depth[m] -= 1
                    if not depth[m]:
                        times[m] += dt
            if after is not None:
                after(bound, result, dt, note)
            return result

        self.wrapped.add(qual)
        return functools.update_wrapper(traced, fn)

    def report(self, wall_s: float) -> dict:
        times = dict(self.times)
        for layer, s in self.self_s.items():
            times[f"{layer}.self_s"] = s
        times["cli.self_s"] = wall_s - self.top_s
        return {"times": times, "counts": dict(self.counts)}


def install() -> Tracer:
    """Wrap the layers' public functions in the imported weylinv package."""
    _io_counters()  # fail now, not mid-run, where /proc/self/io is missing
    tracer = Tracer()
    wrappers = {}  # id(original) -> (original, wrapper)
    for layer in LAYERS:
        module = sys.modules[f"weylinv.{layer}"]
        for name, obj in vars(module).items():
            if (
                name.startswith("_")
                or isinstance(obj, type)
                or not callable(obj)
                or getattr(obj, "__module__", None) != module.__name__
            ):
                continue
            # build_root_system is an lru_cache object: wrapping it from
            # outside records memo hits as calls too
            wrappers[id(obj)] = (obj, tracer.wrap(layer, name, obj))
    for modname, module in list(sys.modules.items()):
        if modname != "weylinv" and not modname.startswith("weylinv."):
            continue
        for name, obj in list(vars(module).items()):
            pair = wrappers.get(id(obj))
            if pair is not None and pair[0] is obj:
                setattr(module, name, pair[1])
    named = {f for fns in TIMERS.values() for f in fns}
    named |= set(CALLS.values()) | set(_Hooks.names)
    missing = sorted(named - tracer.wrapped)
    if missing:
        print(f"tracer: not found, metrics stay 0: {missing}", file=sys.stderr)
    return tracer
