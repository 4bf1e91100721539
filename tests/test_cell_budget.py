"""Cell counts before enumeration, the cell budget and the --max-dim range."""

import json
import resource
import subprocess
import sys

import pytest

from orbicalc import rstar
from orbicalc.errors import ValidationError
from orbicalc.rstar import build_quotient_category, cell_census, cell_counts


MEMORY_LIMIT_BYTES = 1_500_000_000


@pytest.mark.parametrize("include_isos", [False, True])
def test_counts_match_census(include_isos):
    for n in (1, 2, 3, 4, 5, 6):
        cat = build_quotient_category(n)
        for k in (0, 1, 2, 3):
            census = cell_census(n, k, include_isos, category=cat)
            assert cell_counts(cat, k, include_isos) == census.counts(), (n, k)


def test_budget_admits_tested_sizes_and_refuses_n8_d3_isos():
    cat = build_quotient_category(8)
    assert cell_counts(cat, 2, True) == [14, 300, 37109]
    assert sum(cell_counts(build_quotient_category(12), 4, False)) <= rstar.MAX_CELLS
    with pytest.raises(ValidationError, match=r"\[14, 300, 37109, 6121256\]"):
        cell_counts(cat, 3, True)


def test_counting_stops_at_the_budget_or_the_last_cell():
    # With isos, counting stops at the first degree over the budget.
    with pytest.raises(ValidationError, match=r"\[14, 300, 37109, 6121256\]"):
        cell_counts(build_quotient_category(8), rstar.MAX_CELLS - 1, True)
    # Without isos, chains end, and every later degree counts zero cells.
    counts = cell_counts(build_quotient_category(4), rstar.MAX_CELLS - 1, False)
    assert counts[:4] == [5, 8, 4, 0] and len(counts) == rstar.MAX_CELLS
    assert not any(counts[3:])


def test_refusal_names_counts_before_enumerating(monkeypatch):
    def no_chains(*args):
        raise AssertionError("cells were enumerated")

    monkeypatch.setattr(rstar, "MAX_CELLS", 300)
    monkeypatch.setattr(rstar, "_chains", no_chains)
    with pytest.raises(ValidationError, match=r"\[5, 15, 54, 246\]"):
        cell_census(4, 3, include_isos=True)
    cat = build_quotient_category(4)
    with pytest.raises(ValidationError, match="320 cells"):
        rstar.nerve_chain_complex(cat, 3, include_isos=True)


@pytest.mark.parametrize("max_dim", [-1, rstar.MAX_CELLS, 10**9])
def test_max_dim_out_of_range_is_refused(max_dim):
    with pytest.raises(ValidationError, match="max dim"):
        cell_census(3, max_dim)


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_BYTES, MEMORY_LIMIT_BYTES))


def run_refused(*argv) -> dict:
    """Run the CLI under an address-space limit, so that a request the
    checks fail to refuse cannot exhaust the machine, and expect exit 1."""
    proc = subprocess.run(
        [sys.executable, "-m", "orbicalc", *argv],
        capture_output=True, text=True, timeout=120, preexec_fn=_limit_memory,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    record = json.loads(proc.stderr)
    assert record["error"] == "ValidationError"
    return record


@pytest.mark.parametrize("mode", ["--homology", "--census"])
@pytest.mark.parametrize("max_dim", ["-1", "1000000000"])
def test_cli_max_dim_out_of_range_is_a_structured_error(mode, max_dim):
    record = run_refused("rstar", "--max-order", "4", "--max-dim", max_dim, mode)
    assert "max dim" in record["message"]


def test_cli_refuses_over_budget():
    # Without the budget this request needs several GB.
    record = run_refused("rstar", "--max-order", "8", "--max-dim", "3",
                         "--include-isos", "--homology")
    assert "[14, 300, 37109, 6121256]" in record["message"]
