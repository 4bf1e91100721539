"""Sparse boundary columns from the census to homology: the nerve's columns
against a dense oracle built from Cell keys, the census order, the shape
checks of ChainComplex and the memory of a large nerve."""

import json
import subprocess
import sys

import pytest

from orbicalc.errors import ValidationError
from orbicalc.rstar import Arrow, Cell, build_quotient_category, cell_census, nerve_chain_complex
from orbicalc.snf import ChainComplex

from .helpers import sparse_columns


def dense_nerve_boundaries(cat, census) -> list:
    """Normalized nerve boundaries as dense matrices, from the Cell view:
    each face is rebuilt as a Cell through the arrows' reps and found by
    its key, as the nerve was built before its columns were written
    directly."""
    name_to_idx = {nm: i for i, nm in enumerate(cat.object_names)}
    cells = census.cells
    index = [{cell.key(): i for i, cell in enumerate(level)} for level in cells]

    def arrows_of(cell):
        objs = [name_to_idx[nm] for nm in cell.object_names]
        return [Arrow(objs[t], objs[t + 1], rep) for t, rep in enumerate(cell.arrow_reps)]

    out = [None]
    for p in range(1, len(cells)):
        B = [[0] * len(cells[p]) for _ in cells[p - 1]]
        for j, cell in enumerate(cells[p]):
            chain = arrows_of(cell)
            for i in range(p + 1):
                if i == 0:
                    sub = chain[1:]
                elif i == p:
                    sub = chain[:-1]
                else:
                    sub = chain[: i - 1] + [cat.compose(chain[i - 1], chain[i])] + chain[i + 1 :]
                if any(a.is_identity() for a in sub):
                    continue
                if sub:
                    names = (cat.object_names[sub[0].src],) + tuple(
                        cat.object_names[a.dst] for a in sub
                    )
                    face = Cell(names, tuple(a.rep for a in sub))
                else:
                    obj = chain[0].dst if i == 0 else chain[0].src
                    face = Cell((cat.object_names[obj],), ())
                B[index[p - 1][face.key()]][j] += (-1) ** i
        out.append(B)
    return out


@pytest.mark.parametrize("include_isos", [False, True])
def test_nerve_columns_match_the_dense_oracle(include_isos):
    for n in (1, 2, 3, 4, 5, 6):
        cat = build_quotient_category(n)
        for k in (0, 1, 2, 3):
            cc, census = nerve_chain_complex(cat, k, include_isos)
            dense = dense_nerve_boundaries(cat, census)
            assert len(cc.columns) == len(dense) == k + 1
            for p in range(1, k + 1):
                assert cc.columns[p] == sparse_columns(dense[p], cc.ranks[p]), (n, k, p)
                assert cc.boundaries[p] == dense[p]


@pytest.mark.parametrize("include_isos", [False, True])
def test_census_cells_come_out_in_key_order(include_isos):
    for n, k in ((4, 3), (6, 3), (8, 2)):
        census = cell_census(n, k, include_isos)
        cells = census.cells
        assert [len(level) for level in cells] == census.counts()
        assert [c.object_names[0] for c in cells[0]] == sorted(
            build_quotient_category(n).object_names
        )
        for level in cells:
            keys = [c.key() for c in level]
            assert all(a < b for a, b in zip(keys, keys[1:])), (n, k)


def test_chain_complex_rejects_malformed_columns():
    ok = [None, [{0: -1, 1: 1}]]
    ChainComplex(ranks=(2, 1), columns=ok)
    with pytest.raises(ValidationError, match="2 boundaries for 3 degrees"):
        ChainComplex(ranks=(2, 1, 0), columns=ok)
    with pytest.raises(ValidationError, match="2 columns, not 1"):
        ChainComplex(ranks=(2, 1), columns=[None, [{0: 1}, {1: 1}]])
    for bad_row in (2, -1):
        with pytest.raises(ValidationError, match="row outside 0..1"):
            ChainComplex(ranks=(2, 1), columns=[None, [{0: 1, bad_row: 1}]])
    with pytest.raises(ValidationError, match="zero coefficient"):
        ChainComplex(ranks=(2, 1), columns=[None, [{0: 1, 1: 0}]])


PEAK_PROBE = """
import json, resource
from orbicalc.rstar import build_quotient_category, nerve_chain_complex
cc, census = nerve_chain_complex(build_quotient_category(8), 2, True)
print(json.dumps({"counts": census.counts(),
                  "peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""

# Linux keeps a process's peak RSS across exec, so an interpreter spawned
# straight from the test runner would report the runner's own peak.  A
# small intermediate interpreter spawns the probe instead.
HOP = "import subprocess, sys; sys.exit(subprocess.run([sys.executable, '-c', sys.argv[1]]).returncode)"


def test_n8_d2_isos_nerve_peaks_under_100_mb():
    # The 300 x 37,109 degree-2 boundary has 109,825 nonzero entries; as a
    # dense list of lists it alone took about 90 MB, and the whole build
    # peaked at about 150 MB.
    proc = subprocess.run([sys.executable, "-c", HOP, PEAK_PROBE], capture_output=True,
                          text=True, timeout=120, check=True)
    out = json.loads(proc.stdout)
    assert out["counts"] == [14, 300, 37109]
    assert out["peak_mb"] < 100, out
