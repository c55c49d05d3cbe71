"""The SpecInt95-analogue workload suite.

Each workload is a mini-C program plus ``train`` and ``ref`` input data sets
(global-array initial values).  The eight programs mirror the dominant
kernels of the SpecInt95 benchmarks the paper evaluates, so the dynamic
width distributions have the same qualitative shape: character and flag
data are narrow, addresses and accumulators are wide, and a few benchmarks
(the m88ksim and vortex analogues) carry mode variables that are almost
always a single small value — the pattern VRS exploits.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field
from typing import Callable

from ..ir import Program
from ..minic import compile_source

__all__ = ["Workload", "load_suite", "workload_by_name", "SUITE_NAMES"]

#: Benchmarks of SpecInt95, in the order the paper's figures use.
SUITE_NAMES = ("compress", "gcc", "go", "ijpeg", "li", "m88ksim", "perl", "vortex")


@dataclass
class Workload:
    """One benchmark: source text plus train/ref input data."""

    name: str
    description: str
    source: str
    train_data: dict[str, tuple[int, ...]] = field(default_factory=dict)
    ref_data: dict[str, tuple[int, ...]] = field(default_factory=dict)

    def build(self) -> Program:
        """Compile a fresh program instance for this workload."""
        return compile_source(self.source)

    def content_hash(self) -> str:
        """Stable SHA-256 over everything that determines this workload's build.

        The hash covers the source text and both input data sets, so two
        :class:`Workload` instances with the same name but different content
        (an edited program, changed inputs) never alias in the persistent
        result store.  The result is cached on the instance — treat a
        workload as immutable once it has been hashed/evaluated.
        """
        cached = self.__dict__.get("_content_hash")
        if cached is None:
            material = {
                "name": self.name,
                "source": self.source,
                "train": {name: list(values) for name, values in sorted(self.train_data.items())},
                "ref": {name: list(values) for name, values in sorted(self.ref_data.items())},
            }
            blob = json.dumps(material, sort_keys=True).encode("utf-8")
            cached = hashlib.sha256(blob).hexdigest()
            self.__dict__["_content_hash"] = cached
        return cached

    def apply_input(self, program: Program, which: str) -> None:
        """Install the ``train`` or ``ref`` input data into ``program``."""
        if which not in ("train", "ref"):
            raise ValueError(f"unknown input set {which!r}")
        data = self.train_data if which == "train" else self.ref_data
        for name, values in data.items():
            obj = program.data_objects[name]
            capacity = obj.element_count
            if len(values) > capacity:
                raise ValueError(
                    f"{self.name}: input {name!r} has {len(values)} values but only "
                    f"{capacity} fit"
                )
            obj.initial_values = tuple(values)


_REGISTRY: dict[str, Callable[[], Workload]] = {}


def register(name: str):
    """Decorator used by the program modules to register their factory."""

    def wrapper(factory: Callable[[], Workload]) -> Callable[[], Workload]:
        _REGISTRY[name] = factory
        return factory

    return wrapper


def load_suite() -> list[Workload]:
    """Instantiate every workload of the suite (in paper order)."""
    _ensure_loaded()
    return [_REGISTRY[name]() for name in SUITE_NAMES]


def workload_by_name(name: str) -> Workload:
    """Instantiate a single workload by its SpecInt95 name."""
    _ensure_loaded()
    return _REGISTRY[name]()


#: Guards the one-time import of the program modules.  ``_LOADED`` flips
#: only after every module has registered, so a thread racing another
#: thread's import waits for the full registry instead of reading a
#: partial one.
_LOAD_LOCK = threading.Lock()
_LOADED = False


def _ensure_loaded() -> None:
    global _LOADED
    if _LOADED:
        return
    with _LOAD_LOCK:
        if _LOADED:
            return
        from .programs import (  # noqa: F401  (importing registers the factories)
            compress_w,
            gcc_w,
            go_w,
            ijpeg_w,
            li_w,
            m88ksim_w,
            perl_w,
            vortex_w,
        )

        _LOADED = True
