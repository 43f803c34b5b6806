from __future__ import annotations

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from surgreport.digest import sha256


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=4096), st.integers(0, 4096))
def test_builtin_sha256_equals_hashlib(data, cut):
    assert sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
    assert sha256(data).digest() == hashlib.sha256(data).digest()
    pieces = sha256(data[:cut])
    pieces.update(data[cut:])
    assert pieces.hexdigest() == hashlib.sha256(data).hexdigest()
