import hashlib

from caf.seeding import child_rng, derive_seed


def test_documented_construction_is_frozen():
    # first 8 bytes, big-endian, of SHA-256("caf:<seed>:<i0>:<i1>:...")
    expected = int.from_bytes(hashlib.sha256(b"caf:7:1:2").digest()[:8], "big")
    assert derive_seed(7, 1, 2) == expected


def test_distinct_paths_distinct_seeds():
    seen = {derive_seed(0, i, j) for i in range(50) for j in range(4)}
    assert len(seen) == 200


def test_child_rng_deterministic():
    a = child_rng(3, 1).standard_normal(4)
    b = child_rng(3, 1).standard_normal(4)
    assert (a == b).all()


def test_pinned_outputs():
    # literal values: every CSV's row_seed column and every child stream depend on them
    assert derive_seed(0) == 6960609395398876157
    assert derive_seed(0, 0) == 3719959105437101849
    assert derive_seed(0, 0, 0) == 12430131736877515816
    assert derive_seed(1, 2, 3) == 11399521596424023399
    assert derive_seed(2**63 - 1, 7) == 5051206731531200238
    assert derive_seed(12345, 99, 1) == 6707259930775808427
