"""How the package meets CPython's cyclic garbage collector.

`map_group` builds its presentation with the collector paused and puts it
back as it found it; hom enumeration leaves no reference cycle behind, so
nothing it allocates waits for the collector.
"""

import gc

import pytest

from orbicalc import stablemaps
from orbicalc.corpus import corpus_group
from orbicalc.errors import InternalCheckError
from orbicalc.homs import hom_classes
from orbicalc.stablemaps import map_group


@pytest.fixture
def collector_restored():
    """Whatever a test does to the collector, it is enabled again after."""
    yield
    gc.enable()


def _raise(*args):
    raise InternalCheckError("injected")


@pytest.mark.parametrize("raises", [False, True], ids=["returns", "raises"])
@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_map_group_leaves_the_collector_as_it_found_it(
    monkeypatch, collector_restored, enabled, raises
):
    G = corpus_group("s3")
    if raises:
        monkeypatch.setattr(stablemaps, "_generator_classes", _raise)
    if not enabled:
        gc.disable()
    if raises:
        with pytest.raises(InternalCheckError, match="injected"):
            map_group(G, G, "orb")
    else:
        map_group(G, G, "orb")
    assert gc.isenabled() is enabled


def test_map_group_runs_no_automatic_collection(collector_restored):
    G = corpus_group("c2xc2xc2")
    passes = []

    def record(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    gc.enable()
    gc.callbacks.append(record)
    try:
        P = map_group(G, G, "orb")
    finally:
        gc.callbacks.remove(record)
    assert len(P.orbit_table) == 69_233
    assert passes == []


def test_hom_enumeration_leaves_no_cyclic_garbage(fresh_groups, collector_restored):
    A, B = corpus_group("s3"), corpus_group("d8")
    gc.collect()
    gc.disable()
    hom_classes(A, B)
    gc.enable()
    assert gc.collect() == 0
