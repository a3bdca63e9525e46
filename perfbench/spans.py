"""In-memory span recording, wrappers installed from outside the package, and
self-time arithmetic.

A span is (name, start, end, parent, job).  Spans are opened and closed by
wrappers that the traced run installs on the bindings the package's callers
really use, and removes afterwards.  Nothing here is imported by permchains.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict


class Recorder:
    """Spans kept in flat arrays (a sample run opens about half a million)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.current_job = -1
        self._stack: list[int] = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.current_job)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {idx} closed while span {top} was open")

    def add(self, key: str, value: float):
        self.counts[(self.current_job, key)] += value

    def __len__(self) -> int:
        return len(self.start)

    def save(self, path: str):
        """Write every span and count as one gzipped JSON document.

        Times are seconds from the first span's start.
        """
        import gzip
        import json

        t0 = self.start[0] if self.start else 0.0
        doc = {
            "names": self.names,
            "columns": ["name_id", "start", "end", "parent", "job"],
            "spans": [
                [nid, s - t0, e - t0, par, job]
                for nid, s, e, par, job in zip(self.name_id, self.start, self.end, self.parent, self.job)
            ],
            "counts": [[job, key, value] for (job, key), value in sorted(self.counts.items())],
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    Children are clipped to the parent's interval and their union is taken,
    so overlapping or out-of-bounds children are never counted twice.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for idx, par in enumerate(parents):
        if par >= 0:
            children[par].append(idx)
    out = []
    for idx, (s, e) in enumerate(zip(starts, ends)):
        covered = 0.0
        reach = s
        for c in sorted(children.get(idx, ()), key=lambda k: starts[k]):
            lo, hi = max(starts[c], reach), min(ends[c], e)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((e - s) - covered)
    return out


def inclusive_times(names, starts, ends, parents) -> dict[str, float]:
    """Per name, the summed duration of spans not nested in a span of the same name."""
    total: dict[str, float] = defaultdict(float)
    for idx, name in enumerate(names):
        par = parents[idx]
        while par >= 0 and names[par] != name:
            par = parents[par]
        if par < 0:
            total[name] += ends[idx] - starts[idx]
    return total


# -- wrappers -----------------------------------------------------------------------


def timed(rec: Recorder, name: str, fn, count=None):
    nid = rec.intern(name)

    # a plain function, so that it binds as a method when set on a class
    @functools.wraps(fn)
    def call(*args, **kwargs):
        idx = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if count is not None:
            for key, value in count(args, kwargs, result):
                rec.add(key, value)
        return result

    return call


def _timed_iterator(rec: Recorder, name: str, fn):
    """Wrap a function returning an iterator: consume it inside the span."""
    nid = rec.intern(name)

    def call(*args, **kwargs):
        idx = rec.open(nid)
        try:
            items = list(fn(*args, **kwargs))
        finally:
            rec.close(idx)
        rec.add(name + ".states", len(items))
        return iter(items)

    return call


class Patches:
    """Bindings replaced by wrappers, and the originals to put back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def replace_everywhere(self, original, wrapper, package: str = "permchains"):
        """Rebind every module-level name in the package that refers to ``original``.

        Modules that import a function by name hold their own binding, so
        patching only the defining module would miss their calls.
        """
        hits = [
            (module, attr)
            for modname, module in list(sys.modules.items())
            if module is not None and (modname == package or modname.startswith(package + "."))
            for attr, value in vars(module).items()
            if value is original
        ]
        if not hits:
            raise LookupError(f"no binding of {original!r} found in {package}")
        for module, attr in hits:
            self.replace(module, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        bad = [f"{owner.__name__}.{attr}" for owner, attr, original in self._saved if getattr(owner, attr) is not original]
        self._saved.clear()
        if bad:
            raise RuntimeError(f"bindings not restored: {bad}")


def install(rec: Recorder) -> Patches:
    """Wrap the package's layers; call ``restore()`` on the result to undo."""
    from permchains import analysis, bias, chains, paths, perms, walks

    patches = Patches()
    try:
        _install(rec, patches, analysis, bias, chains, paths, perms, walks)
    except BaseException:
        patches.restore()
        raise
    return patches


def _install(rec, patches, analysis, bias, chains, paths, perms, walks):
    def wrap(module, attr, count=None):
        fn = getattr(module, attr)
        label = f"{module.__name__.split('.')[-1]}.{attr}"
        patches.replace_everywhere(fn, timed(rec, label, fn, count))

    wrap(chains, "run", count=lambda a, k, r: (("chains.run.steps", r.steps), ("chains.run.moves", r.moves)))
    for cls in kernel_classes():
        for attr in ("step", "transition_distribution"):
            fn = getattr(cls, attr)
            patches.replace(cls, attr, timed(rec, f"chains.{cls.kind}.{attr}", fn))

    wrap(analysis, "transition_matrix", count=lambda a, k, r: (("analysis.transition_matrix.nnz", r.nnz),))
    wrap(analysis, "mixing_time_exact", count=_mixing_counts)
    wrap(analysis, "spectral_gap", count=lambda a, k, r: (("analysis.spectral_gap.dim", a[0].shape[0]),))
    wrap(analysis, "stationary_exact")
    wrap(analysis, "conductance_of_cut")
    wrap(analysis, "slowmix_cut_report")

    wrap(bias, "solve_delta")
    wrap(bias, "weight_exact")
    wrap(bias, "parse_model_spec")

    wrap(walks, "class_weight")
    wrap(walks, "height_profile")
    wrap(walks, "tile_counts")
    wrap(walks, "all_walks", count=lambda a, k, r: (("walks.all_walks.states", len(r)),))
    fn = perms.all_permutations
    patches.replace_everywhere(fn, _timed_iterator(rec, "perms.all_permutations", fn))

    wrap(paths, "congestion_A", count=lambda a, k, r: (("paths.congestion_A.edges", r.edge_count),))
    wrap(paths, "path_inv_to_nn")
    wrap(paths, "path_tree_to_nn")
    wrap(paths, "verify_path")


def kernel_classes():
    from permchains import chains

    return (
        chains.NearestNeighborChain,
        chains.InversionChain,
        chains.TreeChain,
        chains.OnedChain,
        chains.AsepChain,
        chains.WalkChain,
        chains.WalkTranspositionChain,
    )


def _mixing_counts(args, kwargs, result):
    matrix = args[0]
    starts = kwargs.get("starts", args[3] if len(args) > 3 else None)
    rows = matrix.shape[0] if starts is None else len(starts)
    return (
        ("analysis.mixing_time_exact.iterations", len(result.distances) - 1),
        ("analysis.mixing_time_exact.start_rows", rows),
    )
