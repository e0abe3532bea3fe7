"""Seeded inputs: submitted kernels and the read mix.

Everything here is a pure function of ``(seed, index)``, so the same
seed always produces the same kernels and the same request sequence,
and the program under test only ever sees these generated inputs.

Kernels
-------
The generator varies the constants and expressions of the four accepted
kernels of ``examples/jit_kernels.py``: a guarded elementwise update, an
edge-clamped stencil, a divergent grid-stride loop, and a shared-memory
tree reduction with barriers and one atomic.  Each kernel's name and
constants are drawn per index, so every submission has its own content
fingerprint (the compile cache and the trace cache never hit on a
submission), and each carries its own NumPy formula, written here and
not derived from the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

FAMILIES = ("elementwise", "stencil", "gridstride", "blocksum")

#: Threads per block of every launch the benchmark makes; build_row
#: uses the same 1-D convention.
BLOCK = 256


@dataclass(frozen=True)
class GeneratedKernel:
    """One submission: source text plus the formula it must compute."""

    name: str
    family: str
    source: str
    #: Signature kinds, in order: "n" (element count), "f" (f64 scalar),
    #: "a" (f64 array).
    params: tuple[str, ...]
    #: expected(args) -> the arrays after the kernel ran, as a dict from
    #: argument position to array.  ``args`` are the launch arguments.
    expected: Callable[[list], dict[int, np.ndarray]]
    #: Relative tolerance of the comparison, fixed per family from the
    #: f64 unit roundoff: elementwise formulas allow a few roundings of
    #: reordering by the optimizer; the reduction sums in tree order.
    rtol: float


def _const(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _elementwise(name: str, rng: random.Random) -> GeneratedKernel:
    c1 = _const(rng, 0.25, 4.0)
    c2 = _const(rng, 0.25, 4.0)
    shapes = [
        (f"a * x[i] + y[i] * {c1!r}",
         lambda a, x, y: a * x + y * c1),
        (f"(x[i] - {c1!r}) * a + y[i]",
         lambda a, x, y: (x - c1) * a + y),
        (f"x[i] * {c1!r} + a * y[i] - {c2!r}",
         lambda a, x, y: x * c1 + a * y - c2),
    ]
    text, fn = shapes[rng.randrange(len(shapes))]
    source = (
        f'def {name}(n: "i64", a: "f64", x: "f64[:]", y: "f64[:]"):\n'
        f"    i = gid(0)\n"
        f"    if i < n:\n"
        f"        y[i] = {text}\n")

    def expected(args):
        n, a, x, y = args
        return {3: fn(a, x, y)}

    return GeneratedKernel(name, "elementwise", source, ("n", "f", "a", "a"),
                           expected, rtol=8 * np.finfo(np.float64).eps)


def _stencil(name: str, rng: random.Random) -> GeneratedKernel:
    c1, c2, c3 = (_const(rng, 0.1, 2.0) for _ in range(3))
    c4 = _const(rng, 1.5, 5.0)
    source = (
        f'def {name}(n: "i64", x: "f64[:]", out: "f64[:]"):\n'
        f"    i = gid(0)\n"
        f"    if i < n:\n"
        f"        left = x[i]\n"
        f"        right = x[i]\n"
        f"        if i > 0:\n"
        f"            left = x[i - 1]\n"
        f"        if i < n - 1:\n"
        f"            right = x[i + 1]\n"
        f"        out[i] = ({c1!r} * left + {c2!r} * x[i] + {c3!r} * right)"
        f" / {c4!r}\n")

    def expected(args):
        n, x, out = args
        left = np.concatenate([x[:1], x[:-1]])
        right = np.concatenate([x[1:], x[-1:]])
        return {2: (c1 * left + c2 * x + c3 * right) / c4}

    return GeneratedKernel(name, "stencil", source, ("n", "a", "a"),
                           expected, rtol=8 * np.finfo(np.float64).eps)


def _gridstride(name: str, rng: random.Random) -> GeneratedKernel:
    threshold = _const(rng, 0.2, 0.8)
    terms = rng.randint(2, 5)
    scale = _const(rng, 0.5, 3.0)
    source = (
        f'def {name}(n: "i64", x: "f64[:]", out: "f64[:]"):\n'
        f"    i = gid(0)\n"
        f"    stride = gsize(0)\n"
        f"    while i < n:\n"
        f"        v = x[i]\n"
        f"        if v > {threshold!r}:\n"
        f"            acc = 0.0\n"
        f"            k = 0\n"
        f"            while k < {terms}:\n"
        f"                acc = acc + v * f64(k + 1)\n"
        f"                k = k + 1\n"
        f"            out[i] = sqrt(acc)\n"
        f"        else:\n"
        f"            out[i] = v * {scale!r}\n"
        f"        i = i + stride\n")

    def expected(args):
        n, x, out = args
        acc = np.zeros_like(x)
        for k in range(terms):
            acc = acc + x * float(k + 1)
        return {2: np.where(x > threshold, np.sqrt(acc), x * scale)}

    return GeneratedKernel(name, "gridstride", source, ("n", "a", "a"),
                           expected, rtol=8 * np.finfo(np.float64).eps)


def _blocksum(name: str, rng: random.Random) -> GeneratedKernel:
    scale = _const(rng, 0.5, 3.0)
    source = (
        f'def {name}(n: "i64", x: "f64[:]", out: "f64[:]"):\n'
        f"    tile = shared(f64, {BLOCK})\n"
        f"    i = gid(0)\n"
        f"    t = lid(0)\n"
        f"    stride = gsize(0)\n"
        f"    acc = 0.0\n"
        f"    while i < n:\n"
        f"        acc = acc + x[i] * {scale!r}\n"
        f"        i = i + stride\n"
        f"    tile[t] = acc\n"
        f"    barrier()\n"
        f"    s = {BLOCK // 2}\n"
        f"    while s > 0:\n"
        f"        if t < s:\n"
        f"            tile[t] = tile[t] + tile[t + s]\n"
        f"        barrier()\n"
        f"        s = s // 2\n"
        f"    if t == 0:\n"
        f"        atomic_add(out, 0, tile[0])\n")

    def expected(args):
        n, x, out = args
        want = out.copy()
        want[0] = out[0] + float(np.sum(x * scale))
        return {2: want}

    # A sum of n positive terms in another order differs by at most
    # about n roundings of the total.
    return GeneratedKernel(name, "blocksum", source, ("n", "a", "a"),
                           expected, rtol=4096 * np.finfo(np.float64).eps)


_BUILDERS = {
    "elementwise": _elementwise,
    "stencil": _stencil,
    "gridstride": _gridstride,
    "blocksum": _blocksum,
}


def kernel(seed: int, index: int) -> GeneratedKernel:
    """The ``index``-th submission of run ``seed``.

    Families rotate with the index, so any four consecutive submissions
    hold one kernel of each family.
    """
    rng = random.Random(f"kernel:{seed}:{index}")
    family = FAMILIES[index % len(FAMILIES)]
    name = f"{family[:2]}_{seed}_{index}"
    return _BUILDERS[family](name, rng)


def launch_args(gk: GeneratedKernel, n: int, seed: int) -> list:
    """Seeded launch arguments for ``gk`` (fresh arrays each call)."""
    rng = np.random.default_rng(seed)
    args: list = []
    for kind in gk.params:
        if kind == "n":
            args.append(n)
        elif kind == "f":
            args.append(float(rng.uniform(0.5, 2.0)))
        else:
            args.append(rng.random(n))
    return args


# -- the read mix -------------------------------------------------------------

#: Endpoint families the reads draw from, uniformly: with no record of
#: how the endpoints are used, each family gets the same share of the
#: reads, and the run's reference line shows what each one costs.
READ_FAMILIES = ("table", "cell", "advise", "perf_cell", "perf_matrix",
                 "perf_portability", "healthz")


@dataclass(frozen=True)
class Read:
    family: str
    parts: tuple[str, ...]
    params: tuple[tuple[str, str], ...] = ()


def read(seed: int, index: int, cells: list[tuple[str, str, str]]) -> Read:
    """The ``index``-th read of run ``seed`` over the given 51 cells.

    ``cells`` holds (vendor, model, language) value strings; cell and
    per-cell perf reads pick one uniformly, advice picks a vendor or a
    model from a drawn cell.
    """
    rng = random.Random(f"read:{seed}:{index}")
    family = READ_FAMILIES[rng.randrange(len(READ_FAMILIES))]
    vendor, model, language = cells[rng.randrange(len(cells))]
    if family == "table":
        return Read(family, ("table",),
                    (("format", rng.choice(("text", "yaml"))),))
    if family == "cell":
        return Read(family, ("cell", vendor, model, language))
    if family == "perf_cell":
        return Read(family, ("perf", "cell", vendor, model, language))
    if family == "advise":
        scope = rng.randrange(3)
        if scope == 0:
            params = (("vendor", vendor), ("language", language))
        elif scope == 1:
            params = (("model", model), ("language", language))
        else:
            params = (("language", language),)
        return Read(family, ("advise",), params)
    if family == "perf_matrix":
        return Read(family, ("perf", "matrix"))
    if family == "perf_portability":
        return Read(family, ("perf", "portability"))
    return Read(family, ("healthz",))
