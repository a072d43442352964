"""SHA-256 and SHAKE-256 from CPython's built-in modules, which load no OpenSSL.

`import hashlib` loads OpenSSL's `_hashlib`, about 3.5 MB of a run's peak
resident memory, for a few hundred KB of hashing.  CPython ships the same
algorithms in its own modules (`_sha2` from 3.12, `_sha256` before it, and
`_sha3`), as `random` takes its SHA-512; their digests are those of hashlib
bit for bit.  An interpreter built without them falls back to hashlib.
"""

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

try:
    from _sha3 import shake_256
except ImportError:
    from hashlib import shake_256

__all__ = ["sha256", "shake_256"]
