"""Spans around negamm's public functions, recorded from outside the package.

``Tracer.install`` replaces every public function attribute of the package
modules, and every other module attribute bound to the same function object
(such as the re-exports in ``negamm/__init__.py``), with a wrapper.  Calls that
negamm makes internally through its module globals are therefore caught too.
Each span records its name, a tag (the curve family, or the CLI subcommand),
its parent span, start and end, a work size where one applies, whether it
returned, and how many counted leaf calls it made directly.  Spans live in
flat arrays and are written out once, after the run.
"""

from __future__ import annotations

import gzip
import importlib
import time
import types
from array import array

MODULES = ("curves", "swap", "payoff", "fingerprint", "series", "cli")

# Called ~92 times per csemm inversion: counted on the enclosing span instead
# of timed, so its wrapper cost does not swamp the span around it.
COUNTED = frozenset({"curves.csemm_exponent"})


def _family_tag(args) -> str:
    family = getattr(args[0], "family", None) if args else None
    return getattr(family, "value", "")


TAGGERS = {
    "cli.run": lambda args: args[0][0] if args and args[0] else "",
}

# Work size of one call, for per-point and per-row figures.
SIZERS = {
    "fingerprint.numeric_fingerprint": lambda args, result: len(args[1]),
    "series.load_series": lambda args, result: len(result),
    "series.returns": lambda args, result: len(args[0]),
    "series.negative_price_stats": lambda args, result: len(args[0]),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.tags: list[str] = []
        self._tag_ids: dict[str, int] = {}
        self.name = array("H")
        self.tag = array("H")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.size = array("l")
        self.ok = array("b")
        self.leaf = array("l")
        self._stack = [-1]
        self._patched: list[tuple] = []
        self._wrappers: dict = {}
        self._index: dict[int, list[int]] = {}
        self._indexed = 0

    def _tag_id(self, tag: str) -> int:
        tid = self._tag_ids.get(tag)
        if tid is None:
            tid = self._tag_ids[tag] = len(self.tags)
            self.tags.append(tag)
        return tid

    def _wrap(self, qual: str, fn):
        nid = len(self.names)
        self.names.append(qual)
        stack, leaf = self._stack, self.leaf
        if qual in COUNTED:
            def counted(*args, **kwargs):
                top = stack[-1]
                if top >= 0:
                    leaf[top] += 1
                return fn(*args, **kwargs)

            return counted
        tagger = TAGGERS.get(qual, _family_tag)
        sizer = SIZERS.get(qual)
        tag_id = self._tag_id
        name, tag, parent = self.name, self.tag, self.parent
        start, end, size, ok = self.start, self.end, self.size, self.ok
        clock = time.perf_counter_ns

        def spanned(*args, **kwargs):
            i = len(name)
            name.append(nid)
            tag.append(tag_id(tagger(args)))
            parent.append(stack[-1])
            start.append(0)
            end.append(0)
            size.append(0)
            ok.append(0)
            leaf.append(0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[i] = t0
                end[i] = t1
            ok[i] = 1
            if sizer is not None:
                size[i] = sizer(args, result)
            return result

        return spanned

    def install(self) -> None:
        if self._patched:
            return
        modules = [importlib.import_module("negamm")]
        for short in MODULES:
            mod = importlib.import_module(f"negamm.{short}")
            modules.append(mod)
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and isinstance(fn, types.FunctionType)
                        and fn.__module__ == mod.__name__ and fn not in self._wrappers):
                    self._wrappers[fn] = self._wrap(f"{short}.{attr}", fn)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in self._wrappers:
                    setattr(mod, attr, self._wrappers[val])
                    self._patched.append((mod, attr, val))

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    # ------------------------------------------------------------ queries

    def __len__(self) -> int:
        return len(self.name)

    def select(self, qual: str, tag: str | None = None, ok: bool | None = True) -> list[int]:
        """Indices of spans of one function, optionally by tag and outcome."""
        if qual not in self.names:
            return []
        if self._indexed != len(self.name):
            self._index = {}
            for i, nid in enumerate(self.name):
                self._index.setdefault(nid, []).append(i)
            self._indexed = len(self.name)
        tid = None if tag is None else self._tag_ids.get(tag, -1)
        return [i for i in self._index.get(self.names.index(qual), [])
                if (tid is None or self.tag[i] == tid)
                and (ok is None or self.ok[i] == ok)]

    def durations_ns(self, idx) -> list[int]:
        return [self.end[i] - self.start[i] for i in idx]

    def nearest(self, i: int, nid: int) -> int:
        """Nearest ancestor of span i named ``nid``, or -1."""
        j = self.parent[i]
        while j >= 0 and self.name[j] != nid:
            j = self.parent[j]
        return j

    def calls_per(self, child: str, parents: list[int]) -> float:
        """Spans of ``child`` under the given parent spans, per parent."""
        if not parents or child not in self.names:
            return 0.0
        pid = self.name[parents[0]]
        wanted = set(parents)
        n = sum(1 for i in self.select(child, ok=None) if self.nearest(i, pid) in wanted)
        return n / len(parents)

    def self_ns_by_module(self, upto: int) -> dict[str, int]:
        """Span time minus the time of direct child spans, summed by module
        over the first ``upto`` spans."""
        child = [0] * upto
        for i in range(upto):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, int] = {}
        for i in range(upto):
            mod = self.names[self.name[i]].split(".", 1)[0]
            out[mod] = out.get(mod, 0) + self.end[i] - self.start[i] - child[i]
        return out

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,name,tag,parent,start_ns,end_ns,size,ok,leaf_calls\n")
            for i in range(len(self.name)):
                fh.write(f"{i},{self.names[self.name[i]]},{self.tags[self.tag[i]]},"
                         f"{self.parent[i]},{self.start[i]},{self.end[i]},"
                         f"{self.size[i]},{self.ok[i]},{self.leaf[i]}\n")
