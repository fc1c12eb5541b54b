"""The seeded tuple generators: their random streams are pinned."""

import hashlib
import json

from qflagk.randgen import (
    random_g_tuple,
    random_invariant_t_tuple,
    random_maxrep_combination,
    random_t_tuple,
    random_x_tuple,
    trial_rng,
)

STREAM_SHA256 = "cb7857584b55a7b442f502e6a027214d1030cd010bf0eaff92d78b17926dfe99"


def test_every_tuple_generator_keeps_its_stream():
    # per seed: one tuple of each generator, in this order, then one more
    # draw, so a generator that draws more or less than before shifts the
    # rest of the stream
    digest = hashlib.sha256()
    for n, seeds in ((1, 200), (2, 200), (3, 60)):
        for seed in range(seeds):
            rng = trial_rng(seed, 0)
            tuples = [
                random_t_tuple(rng, n),
                random_x_tuple(rng, n),
                random_g_tuple(rng, n),
                random_invariant_t_tuple(rng, n),
                random_maxrep_combination(rng, n)[0],
            ]
            for f in tuples:
                digest.update(json.dumps(f.to_json(), sort_keys=True).encode())
            digest.update(str(rng.random()).encode())
    assert digest.hexdigest() == STREAM_SHA256
