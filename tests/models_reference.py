"""Model emission as a second generator over the search's satisfied nodes,
kept beside the tests as the definition satenum._search's enumeration mode
is held to: the same models in the same order and the same EnumStats after
every model.  _search's node mode streams the (amask, vmask) of every
satisfied node; the loop below emits a node that sets every variable as one
model and completes one with unconstrained variables in every way on them,
in increasing order, counting one leaf and one emitted model per model."""

from typing import Callable, Iterator

from abductor import satenum
from abductor.core import submasks
from abductor.satenum import EnumStats, ModelStream, _search


def reference_models(search, root, stats: EnumStats, tuples: bool = False) -> Iterator[int]:
    full = (1 << search.n) - 1
    for amask, vmask in _search(search, root, stats, tuples):
        if amask == full:
            stats.models_emitted += 1
            stats.leaves += 1
            yield vmask
        else:
            for sub in submasks(full & ~amask):
                stats.models_emitted += 1
                stats.leaves += 1
                yield vmask | sub


def reference_stream(make: Callable[[], ModelStream]) -> tuple[Iterator[int], EnumStats]:
    """The reference's models and stats on the search that make(), a call of
    enumerate_models or sparse_enumerate, compiles: the call's own search,
    root and branching rule, caught where it enters satenum._search."""
    seen = []

    def catch(search, root, stats, tuples=False, models=False):
        seen.append((search, root, tuples))
        return iter(())

    satenum._search = catch
    try:
        make()
    finally:
        satenum._search = _search
    search, root, tuples = seen[0]
    stats = EnumStats()
    return reference_models(search, root, stats, tuples), stats
