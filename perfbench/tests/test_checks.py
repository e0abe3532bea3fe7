"""Each output check accepts correct output and rejects a corrupted copy."""

import copy

import pytest

import checks
import inputs
from repro.core.render import paper_lookup, render_text, render_yaml
from repro.data.paper_matrix import PAPER_MATRIX
from repro.enums import SupportCategory


def paper_cells():
    return [{"vendor": v.value, "model": m.value, "language": l.value,
             "primary": c.primary.name} for (v, m, l), c in
            PAPER_MATRIX.items()]


def perf_rows():
    """A perf matrix consistent with the published table."""
    cells = []
    for (v, m, l), c in PAPER_MATRIX.items():
        supported = (c.primary is not SupportCategory.NONE and
                     (v.value, m.value, l.value)
                     not in checks.UNSUPPORTED_IN_PERF)
        cells.append({"vendor": v.value, "model": m.value,
                      "language": l.value, "supported": supported,
                      "efficiency": 0.05 if supported else 0.0,
                      "best_route": f"{v.value}-{m.value}" if supported
                      else None})
    return cells


def flip(cells, i, key, value):
    bad = copy.deepcopy(cells)
    bad[i][key] = value
    return bad


def test_ratings():
    cells = paper_cells()
    checks.derived_ratings(cells)
    wrong = "NONE" if cells[0]["primary"] != "NONE" else "FULL"
    with pytest.raises(checks.CheckFailed):
        checks.derived_ratings(flip(cells, 0, "primary", wrong))
    with pytest.raises(checks.CheckFailed):
        checks.cell_rating(flip(cells, 0, "primary", wrong)[0])
    with pytest.raises(checks.CheckFailed, match="50 of 51"):
        checks.derived_ratings(cells[1:])


def test_tables():
    yaml = render_yaml(paper_lookup())
    text = render_text(paper_lookup(), title="t")
    checks.table_yaml(yaml)
    checks.table_text(text)
    with pytest.raises(checks.CheckFailed):
        checks.table_yaml(yaml.replace("hip-cpp: full support",
                                       "hip-cpp: some support", 1))
    rows = text.splitlines()
    at = next(i for i, r in enumerate(rows) if r.startswith("AMD"))
    rows[at] = rows[at].replace("●", "◐", 1)
    with pytest.raises(checks.CheckFailed):
        checks.table_text("\n".join(rows))


def test_advice():
    from repro.core.advisor import Advisor
    from repro.enums import Language, Model, Vendor

    adv = Advisor(minimum=SupportCategory.LIMITED)  # on the published table
    cases = [
        ({"vendor": "AMD", "language": "C++"},
         [str(r) for r in adv.models_for_platform(Vendor.AMD, Language.CPP)]),
        ({"model": "HIP", "language": "C++"},
         [str(r) for r in adv.platforms_for_model(Model.HIP, Language.CPP)]),
        ({"language": "Fortran"},
         [m.value for m in adv.portable_models(Language.FORTRAN)]),
    ]
    for params, recs in cases:
        checks.advice(params, recs)
        with pytest.raises(checks.CheckFailed):
            checks.advice(params, recs[::-1])
        with pytest.raises(checks.CheckFailed):
            checks.advice(params, recs[1:])


def test_perf_cells_and_matrix():
    cells = perf_rows()
    checks.perf_matrix(cells)
    i = next(i for i, c in enumerate(cells) if c["supported"])
    with pytest.raises(checks.CheckFailed, match="not in"):
        checks.perf_cells(flip(cells, i, "efficiency", 1.5))
    with pytest.raises(checks.CheckFailed):
        checks.perf_cells(flip(cells, i, "supported", False))
    j = next(i for i, c in enumerate(cells) if not c["supported"])
    with pytest.raises(checks.CheckFailed):
        checks.perf_cells(flip(cells, j, "supported", True))
    with pytest.raises(checks.CheckFailed, match="50 cells"):
        checks.perf_matrix(cells[1:])


def test_only_the_named_cells_may_be_unsupported_above_no_support():
    cells = perf_rows()
    named = [i for i, c in enumerate(cells)
             if (c["vendor"], c["model"], c["language"])
             in checks.UNSUPPORTED_IN_PERF]
    assert len(named) == len(checks.UNSUPPORTED_IN_PERF) == 2
    for i in named:
        with pytest.raises(checks.CheckFailed, match="supported=True"):
            checks.perf_cells(flip(flip(cells, i, "supported", True),
                                   i, "efficiency", 0.05))
    limited = [i for i, c in enumerate(cells) if i not in named and
               PAPER_MATRIX[checks._key(c["vendor"], c["model"],
                                        c["language"])].primary
               is SupportCategory.LIMITED]
    assert len(limited) == 9
    for i in limited:
        with pytest.raises(checks.CheckFailed, match="supported=False"):
            checks.perf_cells(flip(flip(cells, i, "supported", False),
                                   i, "efficiency", 0.0))


def test_portability_is_the_harmonic_mean():
    row = {"model": "CUDA", "language": "C++", "supported_everywhere": True,
           "cascade": [{"efficiency": e} for e in (0.1, 0.2, 0.4)]}
    row["metric"] = 3 / (1 / 0.1 + 1 / 0.2 + 1 / 0.4)
    checks.portability([row])
    with pytest.raises(checks.CheckFailed):
        checks.portability([dict(row, metric=row["metric"] * 1.01)])
    zero = dict(row, metric=0.0, supported_everywhere=False,
                cascade=[{"efficiency": 0.1}, {"efficiency": 0.0},
                         {"efficiency": 0.2}])
    checks.portability([zero])
    with pytest.raises(checks.CheckFailed):
        checks.portability([dict(zero, supported_everywhere=True)])


def test_static_agrees_within_tolerance():
    measured = perf_rows()
    static = copy.deepcopy(measured)
    i = next(i for i, c in enumerate(static) if c["supported"])
    static[i]["efficiency"] *= 1.9
    checks.static_agrees(static, measured, 2.0)
    static[i]["efficiency"] = measured[i]["efficiency"] * 2.5
    with pytest.raises(checks.CheckFailed, match="tolerance"):
        checks.static_agrees(static, measured, 2.0)
    with pytest.raises(checks.CheckFailed, match="best route"):
        checks.static_agrees(flip(measured, i, "best_route", "other"),
                             measured, 2.0)


def test_identical_and_warm_counters():
    checks.identical("x", "a", "a")
    with pytest.raises(checks.CheckFailed):
        checks.identical("x", "a", "b")
    ok = ["[stats] compile cache: 0 hits, 0 misses",
          "[stats] interpreter: 0 launches, 0 batches, 0 threads"]
    checks.no_kernels_ran("warm", ok)
    with pytest.raises(checks.CheckFailed, match="12 kernel launches"):
        checks.no_kernels_ran("warm", [ok[0], ok[1].replace(": 0", ": 12")])
    with pytest.raises(checks.CheckFailed):
        checks.no_kernels_ran("warm", [])


def test_submitted_row():
    row = {"kernel": "k", "lint": {"errors": 0},
           "vendors": [{"vendor": v, "routes": [{"status": "ok"}]}
                       for v in ("AMD", "Intel", "NVIDIA")]}
    checks.submitted_row(row, "k")
    with pytest.raises(checks.CheckFailed, match="lint"):
        checks.submitted_row(dict(row, lint={"errors": 1}), "k")
    with pytest.raises(checks.CheckFailed, match="vendor rows"):
        checks.submitted_row(dict(row, vendors=row["vendors"][:2]), "k")
    with pytest.raises(checks.CheckFailed):
        checks.submitted_row(row, "other")


def test_kernel_on_device_rejects_a_wrong_formula():
    gk = inputs.kernel(4, 0)
    checks.kernel_on_device(gk, 700, 1)

    def off_by_a_little(args):
        want = gk.expected(args)
        return {i: a * (1 + 1e-9) for i, a in want.items()}

    bad = inputs.GeneratedKernel(gk.name, gk.family, gk.source, gk.params,
                                 off_by_a_little, gk.rtol)
    with pytest.raises(checks.CheckFailed, match="formula"):
        checks.kernel_on_device(bad, 700, 1)


def test_json_document():
    assert checks.json_document("x", '{"a": 1}') == {"a": 1}
    with pytest.raises(checks.CheckFailed):
        checks.json_document("x", "Traceback ...")
