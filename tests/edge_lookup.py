"""Edge ids from vertex pairs, for tests that name edges by their ends."""

import numpy as np


def edge_ids(m, u, v) -> np.ndarray:
    """Ids of the edges joining vertices u and v (arrays, either order);
    every pair must be an edge of m."""
    keys = m.edges[:, 0] * m.n_v + m.edges[:, 1]
    want = np.minimum(u, v) * m.n_v + np.maximum(u, v)
    ids = np.minimum(np.searchsorted(keys, want), m.n_e - 1)
    assert np.all(keys[ids] == want), "a vertex pair is not an edge"
    return ids
