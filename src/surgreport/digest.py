"""SHA-256 without loading OpenSSL.

``import hashlib`` loads OpenSSL's libcrypto, several MB of resident memory,
though the run manifests and the embedding keys need only SHA-256.
CPython builds that algorithm in: ``_sha2`` from 3.12, ``_sha256`` on 3.10
and 3.11. Their digests are those of ``hashlib.sha256``, which is the
fallback for a build without them. The built-in modules are imported by
name, as each is in ``sys.stdlib_module_names`` only on its own versions.
"""

from importlib import import_module


def _builtin_sha256():
    for name in ("_sha2", "_sha256"):
        try:
            return import_module(name).sha256
        except ImportError:
            pass
    from hashlib import sha256

    return sha256


sha256 = _builtin_sha256()
