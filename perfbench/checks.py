"""Output checks, each against the published table or a property.

Every function raises :class:`CheckFailed` with a message naming the
offending item, and returns nothing on success.  None of them compares
against a stored copy of earlier output: the reference is the published
Figure 1 (``repro.data.paper_matrix``, transcribed from the paper), an
arithmetic property the method must have, or a NumPy formula written by
the input generator.
"""

from __future__ import annotations

import json

import numpy as np

from inputs import BLOCK, launch_args


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _paper():
    from repro.data.paper_matrix import PAPER_MATRIX

    return PAPER_MATRIX


def _key(vendor: str, model: str, language: str):
    from repro.enums import Language, Model, Vendor

    return Vendor(vendor), Model(model), Language(language)


def cell_names() -> list[tuple[str, str, str]]:
    """The 51 Figure 1 cells as (vendor, model, language) value strings."""
    from repro.enums import all_cells

    return [(v.value, m.value, l.value) for v, m, l in all_cells()]


# -- compatibility ratings ----------------------------------------------------


def cell_rating(cell: dict) -> None:
    """A derived cell payload (``vendor``/``model``/``language``/
    ``primary``, as the store persists it and ``/cell`` serves it) carries
    the published primary rating."""
    want = _paper()[_key(cell["vendor"], cell["model"],
                         cell["language"])].primary.name
    if cell["primary"] != want:
        where = "/".join(cell[k] for k in ("vendor", "model", "language"))
        raise CheckFailed(f"{where}: derived {cell['primary']}, "
                          f"published {want}")


def derived_ratings(cells: list[dict]) -> None:
    """All 51 cells derived, each with the published primary rating."""
    for c in cells:
        cell_rating(c)
    seen = {_key(c["vendor"], c["model"], c["language"]) for c in cells}
    if seen != set(_paper()):
        raise CheckFailed(f"{len(seen)} of {len(_paper())} cells derived")


def table_yaml(text: str) -> None:
    """A YAML-rendered table carries the published primary label per cell."""
    from repro.enums import MODEL_LANGUAGES, MODEL_ORDER, VENDOR_ORDER

    rows: dict[str, dict[str, str]] = {}
    vendor = None
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        if not line.startswith(" "):
            vendor = line.rstrip(":")
            rows[vendor] = {}
        else:
            k, _, v = line.strip().partition(": ")
            rows[vendor][k] = v.split(" / ")[0]
    paper = _paper()
    for v in VENDOR_ORDER:
        for m in MODEL_ORDER:
            for lang in MODEL_LANGUAGES[m]:
                k = f"{m.value}-{lang.value}".replace("+", "p").lower()
                want = paper[(v, m, lang)].primary.label
                got = rows.get(v.value, {}).get(k)
                if got != want:
                    raise CheckFailed(
                        f"yaml table {v.value}/{k}: {got!r}, published "
                        f"{want!r}")


def table_text(text: str) -> None:
    """A text-rendered table shows the published primary symbol per cell."""
    from repro.enums import Language, Model, Vendor

    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = next(i for i, ln in enumerate(lines) if ln.split()[:1] == ["CUDA"])
    models = lines[head].split()
    langs = lines[head + 1].split()
    lang_of = {"C++": Language.CPP, "F": Language.FORTRAN,
               "Py": Language.PYTHON}
    columns = []
    mi = -1
    for token in langs:
        if token in ("C++", "Py"):
            mi += 1
        columns.append((Model(models[mi]), lang_of[token]))
    paper = _paper()
    checked = 0
    for ln in lines[head + 2:]:
        tokens = ln.split()
        if not tokens or tokens[0] not in {v.value for v in Vendor}:
            continue
        vendor = Vendor(tokens[0])
        if len(tokens) - 1 != len(columns):
            raise CheckFailed(f"text table row {vendor.value}: "
                              f"{len(tokens) - 1} cells")
        for (model, lang), sym in zip(columns, tokens[1:]):
            want = paper[(vendor, model, lang)].primary.symbol
            if sym[0] != want:
                raise CheckFailed(
                    f"text table {vendor.value}/{model.value}/{lang.value}"
                    f": {sym[0]}, published {want}")
            checked += 1
    if checked != len(paper):
        raise CheckFailed(f"text table shows {checked} of {len(paper)} cells")


def advice(params: dict[str, str], recommendations: list[str]) -> None:
    """Advice lists exactly what the published ratings imply, best first."""
    from repro.enums import (MODEL_LANGUAGES, MODEL_ORDER, VENDOR_ORDER,
                             Language, Model, SupportCategory, Vendor)

    paper = _paper()
    lang = Language(params["language"])
    bar = SupportCategory.LIMITED.rank
    if "vendor" in params:
        v = Vendor(params["vendor"])
        picks = [(m, paper[(v, m, lang)].primary) for m in MODEL_ORDER
                 if lang in MODEL_LANGUAGES[m]]
        picks = [p for p in picks if p[1].rank >= bar]
        picks.sort(key=lambda p: -p[1].rank)
        want = [f"{m.value} on {v.value} [{c.label}]" for m, c in picks]
    elif "model" in params:
        m = Model(params["model"])
        picks = [(v, paper[(v, m, lang)].primary) for v in VENDOR_ORDER]
        picks.sort(key=lambda p: -p[1].rank)
        want = [f"{m.value} on {v.value} [{c.label}]" for v, c in picks]
    else:
        want = [m.value for m in MODEL_ORDER if lang in MODEL_LANGUAGES[m]
                and all(paper[(v, m, lang)].primary.rank >= bar
                        for v in VENDOR_ORDER)]
        if recommendations != want:
            raise CheckFailed(f"portable models from {lang.value}: "
                              f"{recommendations}, published {want}")
        return
    got = [r.split(" via ")[0] for r in recommendations]
    if got != want:
        raise CheckFailed(f"advice {params}: {got}, published {want}")


# -- performance portability --------------------------------------------------


#: Cells rated above "no support" that BabelStream cannot run, each with
#: its reason.  Any other cell is supported exactly when its published
#: rating is above "no support".
UNSUPPORTED_IN_PERF = {
    ("Intel", "OpenACC", "C++"):
        "its only route translates through acc2omp, which has no "
        "reduction, so BabelStream's dot cannot run",
    ("Intel", "OpenACC", "Fortran"):
        "its only route translates through acc2omp, which has no "
        "reduction, so BabelStream's dot cannot run",
}


def perf_cells(cells: list[dict]) -> None:
    """Supported exactly where the published rating is above "no
    support", but for the cells of :data:`UNSUPPORTED_IN_PERF`, which
    must be unsupported; every efficiency in [0, 1]."""
    paper = _paper()
    for c in cells:
        where = (c["vendor"], c["model"], c["language"])
        rating = paper[_key(*where)].primary
        want = rating.rank > 0 and where not in UNSUPPORTED_IN_PERF
        if c["supported"] != want:
            raise CheckFailed(f"perf {'/'.join(where)}: supported="
                              f"{c['supported']}, published rating "
                              f"{rating.label}")
        eff = c["efficiency"]
        if not 0.0 <= eff <= 1.0:
            raise CheckFailed(f"perf {'/'.join(where)}: efficiency {eff} "
                              f"not in [0, 1]")
        if c["supported"] != (eff > 0):
            raise CheckFailed(f"perf {'/'.join(where)}: supported="
                              f"{c['supported']} with efficiency {eff}")


def perf_matrix(cells: list[dict]) -> None:
    """A whole perf matrix: all 51 cells, each as :func:`perf_cells` asks."""
    perf_cells(cells)
    if len({(c["vendor"], c["model"], c["language"]) for c in cells}) \
            != len(_paper()):
        raise CheckFailed(f"perf matrix has {len(cells)} cells")


def portability(rows: list[dict]) -> None:
    """Pennycook's metric is the harmonic mean of the cascade's
    efficiencies over all three vendors, and 0 if one is unsupported."""
    for r in rows:
        effs = [e["efficiency"] for e in r["cascade"]]
        where = f"{r['model']}/{r['language']}"
        if len(effs) == 3 and all(e > 0 for e in effs):
            want = 3 / sum(1 / e for e in effs)
        else:
            want = 0.0
        if not abs(r["metric"] - want) <= 1e-12 * max(want, 1e-300):
            raise CheckFailed(f"portability {where}: metric {r['metric']}, "
                              f"harmonic mean {want}")
        if r["supported_everywhere"] != (want > 0):
            raise CheckFailed(f"portability {where}: supported_everywhere="
                              f"{r['supported_everywhere']}")


def static_agrees(static_cells: list[dict], measured_cells: list[dict],
                  tolerance: float) -> None:
    """perfstat's prediction matches the measured matrix within ``tolerance``:
    same supported cells, same best routes, efficiencies within the factor."""
    measured = {(c["vendor"], c["model"], c["language"]): c
                for c in measured_cells}
    for s in static_cells:
        key = (s["vendor"], s["model"], s["language"])
        m = measured.get(key)
        where = "/".join(key)
        if m is None:
            raise CheckFailed(f"static {where}: no measured cell")
        if s["supported"] != m["supported"]:
            raise CheckFailed(f"static {where}: predicted supported="
                              f"{s['supported']}, measured {m['supported']}")
        if s["best_route"] != m["best_route"]:
            raise CheckFailed(f"static {where}: predicted best route "
                              f"{s['best_route']}, measured "
                              f"{m['best_route']}")
        if s["supported"]:
            ratio = s["efficiency"] / m["efficiency"]
            if not 1 / tolerance < ratio < tolerance:
                raise CheckFailed(f"static {where}: predicted/measured "
                                  f"efficiency {ratio:.3f}, tolerance "
                                  f"{tolerance}x")
    if len(static_cells) != len(measured_cells):
        raise CheckFailed(f"static matrix has {len(static_cells)} cells, "
                          f"measured {len(measured_cells)}")


def identical(label: str, first: str, second: str) -> None:
    """Two outputs that must be byte-identical (store transparency)."""
    if first != second:
        raise CheckFailed(f"{label}: outputs differ")


def no_kernels_ran(label: str, stats_lines: list[str]) -> None:
    """The ``--stats`` footer reports zero interpreter launches."""
    for ln in stats_lines:
        if ln.startswith("[stats] interpreter:"):
            launches = int(ln.split()[2])
            if launches != 0:
                raise CheckFailed(f"{label}: {launches} kernel launches on a "
                                  f"warm store")
            return
    raise CheckFailed(f"{label}: no interpreter stats line")


# -- kernel submissions -------------------------------------------------------


def submitted_row(row: dict, name: str) -> None:
    """A submission's row: three vendor rows and no lint errors."""
    from repro.enums import VENDOR_ORDER

    if row.get("kernel") != name:
        raise CheckFailed(f"submit {name}: row for {row.get('kernel')!r}")
    vendors = [v["vendor"] for v in row.get("vendors", [])]
    if vendors != [v.value for v in VENDOR_ORDER]:
        raise CheckFailed(f"submit {name}: vendor rows {vendors}")
    if row["lint"]["errors"] != 0:
        raise CheckFailed(f"submit {name}: {row['lint']['errors']} lint "
                          f"error(s)")
    for v in row["vendors"]:
        if not v["routes"] or not any(r["status"] == "ok"
                                      for r in v["routes"]):
            raise CheckFailed(f"submit {name}: no working route on "
                              f"{v['vendor']}")


def kernel_on_device(gk, n: int, seed: int) -> None:
    """Run ``gk`` on a simulated device through the public jit API and
    compare its output with the generator's NumPy formula."""
    from repro.enums import ISA, Vendor
    from repro.gpu.device import Device
    from repro.gpu.specs import default_spec
    from repro.jit import from_source

    jk = from_source(gk.source)
    binary = jk.compile(ISA.PTX).binary
    device = Device(default_spec(Vendor.NVIDIA))
    host = launch_args(gk, n, seed)
    want = gk.expected([a.copy() if isinstance(a, np.ndarray) else a
                        for a in host])
    dev_args, buffers = [], {}
    for i, a in enumerate(host):
        if isinstance(a, np.ndarray):
            buf = device.alloc_like(a)
            device.memcpy_h2d(buf, a)
            buffers[i] = buf
            dev_args.append(buf)
        else:
            dev_args.append(a)
    device.launch(binary, jk.name, ((n + BLOCK - 1) // BLOCK, 1, 1),
                  (BLOCK, 1, 1), dev_args)
    for i, expect in want.items():
        got = device.memcpy_d2h(buffers[i], np.float64, n)
        if not np.allclose(got, expect, rtol=gk.rtol, atol=0.0):
            bad = int(np.argmax(~np.isclose(got, expect, rtol=gk.rtol,
                                            atol=0.0)))
            raise CheckFailed(
                f"kernel {gk.name} ({gk.family}) argument {i} element "
                f"{bad}: device {got[bad]!r}, formula {expect[bad]!r}")


def json_document(label: str, text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{label}: output is not JSON ({exc})") from None
