"""JSON documents for every type, with byte-deterministic output.

Complex numbers are two-element arrays [re, im].  A document carries
its vectors and matrices as read-only complex ndarrays, and
``dumps_canonical`` is its serializer (``json.dumps`` takes no
ndarray).  The canonical writer keeps insertion order of the fields
and formats every float with 17 significant digits (-0.0 as "-0.0",
which reads back with its sign), so identical inputs produce identical
bytes.  A complex ndarray of any rank is written as nested [re, im]
pairs by one %-operation over its floats, with a format string built
from its shape.  One reader takes vectors and matrices back: a
document of numeric pairs in one pass through C, any other item by
item.
"""

from __future__ import annotations

import json
import math
from itertools import chain

import numpy as np

from .colligation import UnitaryColligation
from .hessenberg import HessenbergCertificate
from .rational import BlaschkeProduct, RationalInner, SchurParameterSequence
from .redheffer import PartitionedColligation
from .schur_state import SchurStateTrace

__all__ = [
    "complex_to_json",
    "complex_from_json",
    "blaschke_to_json",
    "blaschke_from_json",
    "rational_to_json",
    "rational_from_json",
    "params_to_json",
    "params_from_json",
    "matrix_from_json",
    "colligation_to_json",
    "colligation_matrix_from_json",
    "colligation_from_json",
    "partitioned_to_json",
    "partitioned_from_json",
    "certificate_to_json",
    "trace_to_json",
    "dumps_canonical",
    "loads",
]


def complex_to_json(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def complex_from_json(v) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    raise ValueError(f"expected [re, im], got {v!r}")


def _complex_array_to_json(a) -> np.ndarray:
    """a as a read-only contiguous complex array, a view of a itself when it is one."""
    view = np.ascontiguousarray(a, dtype=complex).view()
    view.setflags(write=False)
    return view


def _flat_pairs(doc, rank: int) -> np.ndarray | None:
    """The numbers of doc in one float array, if doc is a matrix or vector of pairs.

    doc is a non-empty list of pairs (rank 1), or of equally long rows
    of them (rank 2), and the pairs hold numbers; the structure is
    tested and flattened in C.  None for any other document.
    """
    try:
        if rank == 2:
            if len(set(map(len, doc))) != 1:
                return None
            doc = list(chain.from_iterable(doc))
        if set(map(len, doc)) != {2}:
            return None
        numbers = np.array(list(chain.from_iterable(doc)))
    except (TypeError, ValueError):  # an entry without a length, or ragged
        return None
    if numbers.ndim != 1 or numbers.dtype.kind not in "biuf":
        return None
    return numbers.astype(float, copy=False)


def _complex_array_from_json(doc, rank: int) -> np.ndarray:
    """A complex array of the given rank from nested lists of [re, im] pairs.

    A complex ndarray of that rank, as a ``*_to_json`` document holds,
    is taken as it is.  A vector or matrix of numeric pairs, the form
    ``json.loads`` gives every written document, is flattened in C and
    read as one float array.  Any other document (scalar entries,
    strings, ragged lists, pairs of another length) is read item by
    item down to ``complex_from_json``, which accepts or rejects each
    entry.
    """
    if rank == 0:
        return complex_from_json(doc)
    if isinstance(doc, np.ndarray) and doc.dtype == complex and doc.ndim == rank:
        return doc
    if type(doc) is list:
        numbers = _flat_pairs(doc, rank)
        if numbers is not None:
            return numbers.view(complex).reshape((len(doc), -1) if rank == 2 else -1)
    return np.array([_complex_array_from_json(v, rank - 1) for v in doc], dtype=complex)


def matrix_from_json(doc) -> np.ndarray:
    """A complex matrix from rows of [re, im] pairs (or of real scalars)."""
    return _complex_array_from_json(doc, 2)


def blaschke_to_json(b: BlaschkeProduct) -> dict:
    return {"c": complex_to_json(b.c), "zeros": _complex_array_to_json(b.zeros)}


def blaschke_from_json(doc: dict) -> BlaschkeProduct:
    return BlaschkeProduct(
        complex_from_json(doc["c"]),
        _complex_array_from_json(doc["zeros"], 1),
    )


def rational_to_json(s: RationalInner) -> dict:
    return {"num": _complex_array_to_json(s.num), "den": _complex_array_to_json(s.den)}


def rational_from_json(doc: dict) -> RationalInner:
    return RationalInner(
        _complex_array_from_json(doc["num"], 1), _complex_array_from_json(doc["den"], 1)
    )


def params_to_json(p: SchurParameterSequence) -> dict:
    return {"params": _complex_array_to_json(p.params)}


def params_from_json(doc: dict) -> SchurParameterSequence:
    return SchurParameterSequence(_complex_array_from_json(doc["params"], 1))


def colligation_to_json(col: UnitaryColligation) -> dict:
    return {"n": col.n, "matrix": _complex_array_to_json(col.matrix)}


def _declared_int(value, what: str) -> int:
    """A dimension a document declares: a JSON integer, which true is not."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, not {json.dumps(value)}")
    return value


def colligation_matrix_from_json(doc: dict) -> np.ndarray:
    """The matrix of a colligation document, checked against a declared n."""
    matrix = matrix_from_json(doc["matrix"])
    n = doc.get("n", matrix.shape[0] - 1)
    if _declared_int(n, "declared state dimension") != matrix.shape[0] - 1:
        raise ValueError(
            f"declared state dimension {n} does not match matrix size {matrix.shape[0]}"
        )
    return matrix


def colligation_from_json(doc: dict) -> UnitaryColligation:
    return UnitaryColligation(colligation_matrix_from_json(doc))


def partitioned_to_json(pc: PartitionedColligation) -> dict:
    return {
        "dims": {"e1": pc.e1, "e2": pc.e2, "h": pc.h},
        "matrix": _complex_array_to_json(pc.matrix),
    }


def partitioned_from_json(doc: dict) -> PartitionedColligation:
    dims = doc["dims"]
    return PartitionedColligation(
        matrix_from_json(doc["matrix"]),
        *(_declared_int(dims[key], f"dims.{key}") for key in ("e1", "e2", "h")),
    )


def certificate_to_json(cert: HessenbergCertificate) -> dict:
    return {
        "H": _complex_array_to_json(cert.H),
        "V": _complex_array_to_json(cert.V),
        "orientation": cert.orientation,
        "band": [float(x) for x in cert.band],
    }


def trace_to_json(trace: SchurStateTrace) -> dict:
    """Parameters, the reduced matrix H and the denominator chain, O(n^2).

    The parameters were peeled off H section by section, and iterate p of
    the recursion is H[p:, p:] with its first column replaced by the
    peel's carried column p, scaled so that its head is s_p
    (``SchurStateTrace.matrices``; the loop is in README).
    """
    return {
        "parameters": _complex_array_to_json(trace.parameters),
        "H": _complex_array_to_json(trace.H),
        "denominators": [_complex_array_to_json(chi) for chi in trace.denominators],
        "complete": trace.complete,
        "message": trace.message,
    }


def _format_float(x: float) -> str:
    """x to 17 significant digits; -0.0 as "-0.0", since JSON's -0 reads back as 0."""
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    text = format(x, ".17g")
    return "-0.0" if text == "-0" else text


def _dumps_complex_array(a: np.ndarray) -> str:
    """a as nested [re, im] pairs, one %-operation over all its floats.

    '%.17g' % x == format(x, '.17g') for every finite float, and "-0"
    is the only token that ends in "-0" (exponents have two digits), so
    with it written "-0.0" the bytes are those of the recursion over
    a.tolist() in pairs.  Whether a negative zero is there is asked of
    the floats, not of the text: on a 33 x 33 matrix two substring
    searches cost about fifteen times as much.
    """
    if not np.isfinite(a).all():
        raise ValueError("non-finite value cannot be serialized")
    template = "[%.17g,%.17g]"
    for size in reversed(a.shape):
        template = "[" + ",".join([template] * size) + "]"
    floats = a.ravel().view(float)
    text = template % tuple(floats.tolist())
    if (np.signbit(floats) & (floats == 0.0)).any():
        text = text.replace("-0,", "-0.0,").replace("-0]", "-0.0]")
    return text


def dumps_canonical(doc) -> str:
    """Compact JSON with fixed field order and 17-significant-digit floats.

    Complex ndarrays are written as nested [re, im] pairs.
    """
    if doc is None:
        return "null"
    if isinstance(doc, bool):
        return "true" if doc else "false"
    if isinstance(doc, (int, np.integer)):
        return str(int(doc))
    if isinstance(doc, (float, np.floating)):
        return _format_float(float(doc))
    if isinstance(doc, str):
        return json.dumps(doc)
    if isinstance(doc, dict):
        items = ",".join(
            f"{json.dumps(str(k))}:{dumps_canonical(v)}" for k, v in doc.items()
        )
        return "{" + items + "}"
    if isinstance(doc, np.ndarray) and doc.dtype == complex:
        return _dumps_complex_array(doc)
    if isinstance(doc, (list, tuple)):
        return "[" + ",".join(dumps_canonical(v) for v in doc) + "]"
    raise TypeError(f"cannot serialize {type(doc).__name__}")


def loads(text: str):
    return json.loads(text)
