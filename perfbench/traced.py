"""Run one workload child with spans around the public calls of each layer.

    PYTHONPATH=src python3 perfbench/traced.py OUT cli curve --m 3 --n 7 ...
    PYTHONPATH=src python3 perfbench/traced.py OUT crosscheck --seed 7

The wrappers replace every binding of a traced function inside the
``manyslit`` modules (and the crosscheck driver), so each caller goes through
the wrapper under the name it actually uses: ``hierarchy`` calls
``quantum_correlation`` through its own module global, ``cli`` calls
``sorkin`` through its import, and so on.  No file under ``src/`` changes.

Spans stay in memory while the workload runs.  At exit the child writes
``OUT.npy`` (rows: name index, start ns, end ns) and
``OUT.json`` (span names and the per-layer counts), which ``run.py`` reads.
Counts are computed from the call arguments, so they repeat exactly.
"""
from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np


def _subset_key(self, labels):
    return self, frozenset(labels)


def _classical_key(slits, phases, **_):
    # the exclusive classical term depends on the grating and M only
    return slits, phases.m


def _peel_ops(slits, phases, **_):
    return 3 ** len(slits)


def _subsets(m, slits, phases, **_):
    return (1 << len(slits)) - 1 if len(slits) > 1 else 0


def _pairs(slits, phases, **_):
    return len(slits) ** (2 * phases.m)


def _draws(m, model, trials, **_):
    if model.variant != "per_combination_iid":
        return 0
    return int(trials) * ((1 << (2 * int(m) + 1)) - 1)


# (module, attribute, distinct-key function, count name, count function)
TARGETS = (
    ("optics", "SlitSet.subset", _subset_key, None, None),
    ("correlations", "quantum_correlation", None, None, None),
    ("correlations", "exclusive_classical", _classical_key, "peel_ops", _peel_ops),
    ("correlations", "central_peak", None, None, None),
    ("hierarchy", "interference", None, "subsets", _subsets),
    ("hierarchy", "interference_oracle", None, None, None),
    ("paths", "pair_sum", None, "pairs", _pairs),
    ("paths", "diagonal_sum", None, None, None),
    ("sorkin", "sorkin", None, None, None),
    ("sorkin", "deviation_montecarlo", None, "draws", _draws),
)
ROOT_SPAN = "cli.main"


class Tracer:
    """Span recorder: one (name, start ns, end ns) row per call, appended
    when the call returns.  Calls nest, so the span that caused each one
    follows from the intervals and is not recorded at call time."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int]] = []
        self.distinct: dict[str, set] = {}
        self.totals: dict[str, list[int]] = {}

    def wrap(self, fn, name: str, key=None, count=None):
        index = len(self.names)
        self.names.append(name)
        add_span = self.spans.append
        clock = time.perf_counter_ns
        seen = self.distinct.setdefault(name, set()).add
        total = self.totals.setdefault(name, [0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                add_span((index, start, clock()))
                if key is not None:
                    seen(key(*args, **kwargs))
                if count is not None:
                    total[0] += count(*args, **kwargs)

        return traced

    def install(self, modules) -> None:
        """Patch every binding of each target inside ``modules``."""
        for module_name, attr, key, _, count in TARGETS:
            owner = sys.modules[f"manyslit.{module_name}"]
            name = f"{module_name}.{attr}"
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                setattr(cls, method, self.wrap(cls.__dict__[method], name, key, count))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(original, name, key, count)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, binding, wrapper)

    def dump(self, out: str) -> None:
        spans = np.array(self.spans, dtype=np.int64).reshape(-1, 3).T
        calls = np.bincount(spans[0], minlength=len(self.names))
        counts = {}
        for module_name, attr, key, count_name, _ in TARGETS:
            name = f"{module_name}.{attr}"
            index = self.names.index(name)
            if key is not None:
                distinct = len(self.distinct[name])
                counts[f"{name}.distinct_ratio"] = (
                    distinct / int(calls[index]) if calls[index] else 0.0)
            if count_name is not None:
                counts[f"{name}.{count_name}"] = self.totals[name][0]
        np.save(out + ".npy", spans)
        with open(out + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "counts": counts}, fh)


def main() -> int:
    out, kind, *args = sys.argv[1:]
    import manyslit.cli
    tracer = Tracer()
    if kind == "cli":
        entry = tracer.wrap(manyslit.cli.main, ROOT_SPAN)
    else:
        import crosscheck
        entry = crosscheck.main
    tracer.install([m for n, m in sys.modules.items()
                    if n in ("manyslit", "crosscheck") or n.startswith("manyslit.")])
    code = entry(args)
    sys.stdout.flush()
    tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
