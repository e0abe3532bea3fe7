import numpy as np
import pytest

import checks
import inputs
from repro.jit import from_source, reference_run


def test_same_seed_same_inputs():
    assert inputs.kernel(5, 3).source == inputs.kernel(5, 3).source
    assert inputs.kernel(5, 3).source != inputs.kernel(6, 3).source
    cells = checks.cell_names()
    assert [inputs.read(5, i, cells) for i in range(50)] == \
        [inputs.read(5, i, cells) for i in range(50)]


def test_families_rotate_so_each_round_holds_one_of_each():
    fams = [inputs.kernel(1, i).family for i in range(8)]
    assert fams == list(inputs.FAMILIES) * 2


def test_every_generated_kernel_is_accepted_with_distinct_fingerprint():
    prints = set()
    for seed in (1, 2):
        for i in range(12):
            gk = inputs.kernel(seed, i)
            jk = from_source(gk.source)
            assert jk.name == gk.name
            prints.add(jk.fingerprint())
    assert len(prints) == 24


def test_constants_vary_not_only_names():
    a = inputs.kernel(1, 0).source.replace(inputs.kernel(1, 0).name, "k")
    b = inputs.kernel(1, 4).source.replace(inputs.kernel(1, 4).name, "k")
    assert a != b


@pytest.mark.parametrize("index", range(len(inputs.FAMILIES)))
def test_formula_matches_the_reference_executor(index):
    """The generator's NumPy formula agrees with the program's pure-Python
    reference executor on the kernel it wrote."""
    gk = inputs.kernel(9, index)
    n = 300  # two blocks, the second partial
    host = inputs.launch_args(gk, n, 4)
    want = gk.expected([a.copy() if isinstance(a, np.ndarray) else a
                        for a in host])
    grid = ((n + inputs.BLOCK - 1) // inputs.BLOCK,)
    got = reference_run(from_source(gk.source), grid, (inputs.BLOCK,), host)
    for i, expect in want.items():
        np.testing.assert_allclose(got[i], expect, rtol=gk.rtol, atol=0)


def test_reads_cover_every_family_and_every_cell():
    cells = checks.cell_names()
    reads = [inputs.read(3, i, cells) for i in range(3000)]
    assert {r.family for r in reads} == set(inputs.READ_FAMILIES)
    touched = {tuple(r.parts[-3:]) for r in reads
               if r.family in ("cell", "perf_cell")}
    assert touched == set(cells)
