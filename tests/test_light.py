"""Complete group-table validation by Light's associativity test, and the
entry checks that run before the table is cast to numpy."""

import re

import pytest

from orbicalc.errors import ValidationError
from orbicalc.groups import FiniteGroup, group_from_generators, group_from_json

S5_GENS = [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]]
S6_GENS = [[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]]
# C2 x S5 on 7 points: a transposition of {0, 1} times S5 on {2..6}.
C2XS5_GENS = [[1, 0, 2, 3, 4, 5, 6], [0, 1, 3, 2, 4, 5, 6], [0, 1, 3, 4, 5, 6, 2]]


def reduced_latin_squares(n):
    """Every n x n Latin square whose first row and column are 0..n-1."""
    sq = [[i if r == 0 else (r if i == 0 else None) for i in range(n)] for r in range(n)]
    rows = [set(sq[r][:1]) if r else set(range(n)) for r in range(n)]
    cols = [set(range(n)) if c == 0 else {c} for c in range(n)]
    cells = [(r, c) for r in range(1, n) for c in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield [row[:] for row in sq]
            return
        r, c = cells[k]
        for x in range(n):
            if x in rows[r] or x in cols[c]:
                continue
            sq[r][c] = x
            rows[r].add(x)
            cols[c].add(x)
            yield from fill(k + 1)
            rows[r].discard(x)
            cols[c].discard(x)
        sq[r][c] = None

    yield from fill(0)


def brute_force_associative(t):
    n = len(t)
    return all(
        t[t[a][b]][c] == t[a][t[b][c]] for a in range(n) for b in range(n) for c in range(n)
    )


def assert_names_a_failing_triple(table, message):
    m = re.fullmatch(r"associativity fails at \((\d+), (\d+), (\d+)\)", message)
    assert m, message
    a, b, c = map(int, m.groups())
    assert table[table[a][b]][c] != table[a][table[b][c]]


def test_reduced_latin_square_counts():
    # OEIS A000315: the enumerator below is complete.
    assert [sum(1 for _ in reduced_latin_squares(n)) for n in range(1, 7)] == [
        1, 1, 1, 4, 56, 9408,
    ]


@pytest.mark.parametrize("n", range(1, 7))
def test_accepts_exactly_the_associative_latin_squares(n):
    accepted = 0
    for sq in reduced_latin_squares(n):
        expect = brute_force_associative(sq)
        try:
            G = FiniteGroup(sq)
        except ValidationError as exc:
            assert not expect, (sq, str(exc))
            no_inverse = [a for a in range(n) if all(sq[a][b] or sq[b][a] for b in range(n))]
            if no_inverse:
                assert str(exc) == f"element {no_inverse[0]} has no two-sided inverse"
            else:
                assert_names_a_failing_triple(sq, str(exc))
            continue
        assert expect, sq
        assert all(sq[a][G.inverses()[a]] == G.identity for a in range(n))
        accepted += 1
    # Reduced group tables: one per labelling of each group with identity 0.
    assert accepted == {1: 1, 2: 1, 3: 1, 4: 4, 5: 6, 6: 80}[n]


@pytest.mark.parametrize(
    "table, message",
    [
        ([[0, 1, 2], [1, 2, 0], [2, 1, 0]], "column 1 is not a permutation"),
        ([[0, 1, 2], [1, 1, 0], [2, 0, 1]], "row 1 is not a permutation"),
        ([[0, 1, 2], [1, 0, 1], [2, 2, 0]], "row 1 is not a permutation"),
        ([[1, 1], [1, 1]], "table has no two-sided identity"),
    ],
)
def test_names_the_first_failing_check(table, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        FiniteGroup(table)


def _intercalate_swapped(G):
    """G's table with one 2 x 2 Latin subsquare swapped, away from the
    identity row and column and from the identity's cells.

    For an involution t, rows a, a t and columns c, t c hold x = a c and
    y = a t c in the pattern [[x, y], [y, x]]; swapping x and y keeps a
    Latin square with the same identity and inverses.
    """
    t, e, n = G.table, G.identity, G.order
    for inv in range(n):
        if inv == e or t[inv][inv] != e:
            continue
        for a in range(n):
            b = t[a][inv]
            if e in (a, b):
                continue
            for c in range(n):
                d = t[inv][c]
                x, y = t[a][c], t[a][d]
                if e in (c, d, x, y):
                    continue
                rows = [list(r) for r in t]
                rows[a][c], rows[a][d], rows[b][c], rows[b][d] = y, x, x, y
                return rows
    raise AssertionError("no intercalate found")


@pytest.mark.parametrize("gens", [C2XS5_GENS, S6_GENS], ids=["c2xs5", "s6"])
def test_rejects_one_swapped_intercalate_in_a_large_table(gens):
    G = group_from_generators(len(gens[0]), gens)
    assert G.order in (240, 720)
    bad = _intercalate_swapped(G)
    with pytest.raises(ValidationError) as exc:
        FiniteGroup(bad)
    assert_names_a_failing_triple(bad, str(exc.value))


def test_large_tables_are_accepted_and_inverses_filled():
    for gens, n in ((S5_GENS, 120), (C2XS5_GENS, 240), (S6_GENS, 720)):
        G = group_from_generators(len(gens[0]), gens)
        assert G.order == n
        H = FiniteGroup([list(r) for r in G.table])
        assert H.table == G.table
        inv = H._cache["inverses"]
        assert all(G.table[a][inv[a]] == G.identity == G.table[inv[a]][a] for a in range(n))


def test_table_rows_share_one_int_per_element():
    G = group_from_generators(6, S6_GENS)
    first = {}
    for row in G.table:
        for x in row:
            assert first.setdefault(x, x) is x


@pytest.mark.parametrize(
    "table",
    [
        [[0, 1], [1]],
        [[1, 0, 2], [2], [0, 1, 2]],
        [[0, 1, 2], [1, 2, 0]],
        [[0, 1], [1, 2]],
        [[0, 1], [1, -1]],
        [[0, 1], [1, True]],
        [[0, 1], [1, 0.0]],
        [[0, 1], [1, "0"]],
        [[0, 1], [1, None]],
        [[0, 1], [1, 2**70]],
        [],
    ],
)
def test_rejects_ragged_out_of_range_and_non_int_tables(table):
    with pytest.raises(ValidationError):
        FiniteGroup(table)
    with pytest.raises(ValidationError):
        group_from_json({"table": table})


@pytest.mark.parametrize(
    "data",
    [
        {"degree": "3", "generators": [[1, 2, 0]]},
        {"degree": 3.0, "generators": [[1, 2, 0]]},
        {"degree": True, "generators": []},
        {"degree": 3, "generators": [[1, 2, "0"]]},
        {"degree": 3, "generators": [["0", 2, 1]]},
        {"degree": 3, "generators": [[1.0, 2, 0]]},
        {"degree": 3, "generators": 5},
        {"degree": 3, "generators": ["120"]},
        {"table": 5},
        {"table": [5]},
        {"table": [[0, 1], [1, 0]], "labels": [1, 2]},
        {"table": [[0, 1], [1, 0]], "labels": ["e"]},
        {"table": [[0, 1], [1, 0]], "labels": "ab"},
    ],
)
def test_group_json_with_wrong_types_is_a_validation_error(data):
    with pytest.raises(ValidationError):
        group_from_json(data)


def test_group_json_table_with_labels():
    G = group_from_json({"table": [[0, 1], [1, 0]], "labels": ["e", "t"]})
    assert G.labels == ("e", "t")
