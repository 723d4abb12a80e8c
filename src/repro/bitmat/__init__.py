"""Compressed BitMat indexes: bitvectors, 2D matrices, and the store (§4).

One store class (:class:`BitMatStore`) over a pair source, one image
format: ``save_mmap_store`` writes it, ``open_store`` maps it back.
"""

from .backend import StoreBackend, is_store_image, open_store, open_store_bytes
from .bitmat import BitMat, Dim
from .bitvec import BitVector
from .mmapstore import dump_mmap_bytes, save_mmap_store
from .store import BitMatStore

__all__ = ["BitMat", "BitMatStore", "BitVector", "Dim", "StoreBackend",
           "dump_mmap_bytes", "is_store_image", "open_store",
           "open_store_bytes", "save_mmap_store"]
