"""The wire codec's old home: it lives in :mod:`repro.rpc.codec` now.

The benchmark's layer ledger (``bench/layers.py``) wraps these five
names here by path; this module goes with that reference, in the
bench-only change that points the ledger at :mod:`repro.rpc.codec`.
"""

from ..rpc.codec import (decode_wire_body, encode_batch_body,
                         encode_binary_body, encode_frame, encode_json_body)

__all__ = ["decode_wire_body", "encode_batch_body", "encode_binary_body",
           "encode_frame", "encode_json_body"]
