import hashlib

import pytest

from chipfire.family import pleasant_family
from chipfire.serialize import dumps, graph_to_obj


@pytest.mark.parametrize("bounds, count, digest", [
    ((4, 5, 3), 21696,
     "9cb6266ebd60673d9ebb3bf71e43394d85cf5c4201f508cc0e96c442855bb13a"),
    ((3, 4, 3), 1774,
     "6e491a0c2c3136e95da2a0f1471abd70e65ac37d900f6bbac2a29f7a831bc406"),
], ids=["desk", "sabotage-sub-family"])
def test_family_matches_its_golden_digest(bounds, count, digest):
    # sha256 over each graph's JSON text, in generation order, as the
    # generator gave it when every graph went through `build`
    h = hashlib.sha256()
    n = 0
    for g in pleasant_family(*bounds):
        h.update(dumps(graph_to_obj(g)).encode())
        n += 1
    assert (n, h.hexdigest()) == (count, digest)
