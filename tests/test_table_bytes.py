"""The character tables' bytes, pinned: classes, degrees, character
values, Frobenius-Schur indicators and real irreps (dimension and
endomorphism type) of every corpus group and of six larger groups built
from permutation generators.  Any change to how the tables are computed
must leave this digest as it is."""

import hashlib

from orbicalc.characters import character_table, frobenius_schur
from orbicalc.corpus import corpus_group, corpus_names
from orbicalc.groups import group_from_generators
from orbicalc.realreps import real_irreps

TABLE_DIGEST = "22492a014c3dd5ab0cf5007b30be4d7a984890ec56396f34af1fed2df09fc98a"


def _cyclic(n):
    return n, [[(i + 1) % n for i in range(n)]]


def _product(*factors):
    degree = sum(d for d, _ in factors)
    gens, offset = [], 0
    for d, gs in factors:
        for g in gs:
            gens.append(list(range(offset)) + [offset + x for x in g]
                        + list(range(offset + d, degree)))
        offset += d
    return degree, gens


def _symmetric(n):
    return n, [[1, 0] + list(range(2, n)), [(i + 1) % n for i in range(n)]]


BUILT = {
    "c59": _cyclic(59),
    "c36": _cyclic(36),
    "c6xc6": _product(_cyclic(6), _cyclic(6)),
    "c4xc8": _product(_cyclic(4), _cyclic(8)),
    "c3xc3xc3": _product(_cyclic(3), _cyclic(3), _cyclic(3)),
    "s6": _symmetric(6),
}


def table_record(G):
    ct = character_table(G)
    return (
        tuple(ct.classes),
        ct.degrees,
        tuple(tuple(v.coeffs for v in row) for row in ct.values),
        tuple(frobenius_schur(ct, t) for t in range(ct.num_classes)),
        tuple((s.real_dim, s.end_type) for s in real_irreps(G)),
    )


def test_table_bytes_are_pinned():
    groups = [(name, corpus_group(name)) for name in corpus_names()]
    groups += [(name, group_from_generators(*BUILT[name], name=name)) for name in BUILT]
    assert len(groups) == 60
    digest = hashlib.sha256()
    for name, G in groups:
        digest.update(repr((name, G.order, table_record(G))).encode())
    assert digest.hexdigest() == TABLE_DIGEST
