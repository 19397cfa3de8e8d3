"""Binary tensor files, manifests, and 8-bit image previews.

Tensor format (little-endian throughout):

    bytes 0..3   magic "CMT1"
    bytes 4..7   ndim as u32
    next ndim*4  dims as u32 each
    rest         IEEE-754 float32 payload, row-major, product(dims) values

Manifests and reports are line-delimited JSON with sorted keys, so equal
runs produce byte-identical files.  All writers go through a temp file
plus atomic rename; a crash never leaves a half-written artifact behind.
A preview (``dump_image``) is binary PGM for one channel and PPM for
three; one encoder writes both, and only the header differs.
"""

import json
import os
import struct
import tempfile

import numpy as np

MAGIC = b"CMT1"


def _atomic_write_bytes(path: str, payload: bytes):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def tensor_bytes(array) -> bytes:
    """Serialise an array to the binary tensor format."""
    arr = np.ascontiguousarray(array, dtype=np.float32)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    header = MAGIC + struct.pack("<I", arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return header + arr.tobytes()


def write_tensor(path: str, array):
    """Atomically write an array as a tensor file (float32 payload)."""
    _atomic_write_bytes(path, tensor_bytes(array))


def read_tensor(path: str) -> np.ndarray:
    """Read a tensor file back as a float64 array.

    Values pass through float32, so a write/read/write cycle is
    byte-identical even though callers work in float64.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8 or blob[:4] != MAGIC:
        raise ValueError(f"{path}: not a tensor file (bad magic)")
    (ndim,) = struct.unpack_from("<I", blob, 4)
    if ndim == 0 or len(blob) < 8 + 4 * ndim:
        raise ValueError(f"{path}: truncated tensor header")
    dims = struct.unpack_from(f"<{ndim}I", blob, 8)
    count = 1
    for d in dims:
        if d == 0:
            raise ValueError(f"{path}: zero dimension in {dims}")
        count *= d
    payload = blob[8 + 4 * ndim :]
    if len(payload) != 4 * count:
        raise ValueError(
            f"{path}: payload holds {len(payload)} bytes, dims {dims} need {4 * count}"
        )
    arr = np.frombuffer(payload, dtype="<f4").reshape(dims)
    return arr.astype(np.float64)


def write_text(path: str, text: str):
    """Atomically write a UTF-8 text file."""
    _atomic_write_bytes(path, text.encode("utf-8"))


def write_jsonl(path: str, records):
    """Atomically write records as sorted-key JSON lines."""
    lines = [
        json.dumps(rec, sort_keys=True, separators=(", ", ": ")) for rec in records
    ]
    payload = ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")
    _atomic_write_bytes(path, payload)


def read_jsonl(path: str) -> list:
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def dump_image(path: str, image):
    """8-bit binary preview of a (h, w), (1, h, w) or (3, h, w) array, values
    clamped to [0, 1]: PGM (P5) for one channel, PPM (P6) for three."""
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[None]
    if arr.ndim != 3 or arr.shape[0] not in (1, 3):
        raise ValueError(f"cannot dump image of shape {arr.shape}")
    c, h, w = arr.shape
    header = f"{'P5' if c == 1 else 'P6'}\n{w} {h}\n255\n".encode("ascii")
    pixels = np.round(np.clip(arr, 0.0, 1.0) * 255.0).astype(np.uint8)
    _atomic_write_bytes(path, header + np.moveaxis(pixels, 0, -1).tobytes())
