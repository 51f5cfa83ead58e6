"""Model persistence.

One JSON format covers single nets and ensembles, distinguished by a
"kind" field. Floats go through Python's shortest-roundtrip repr, so a
save/load/save cycle is byte-identical and parameters reload bit-exact.
"""

from __future__ import annotations

import json
from pathlib import Path

from .atomic import atomic_open
from .errors import FormatError
from .ensemble import EnsembleModel
from .model import ArchSpec, EdeNet, net_from_payload, net_to_payload

FORMAT_MARKER = "edenet-model"
FORMAT_VERSION = 1


def save_model(obj: EdeNet | EnsembleModel, path) -> None:
    if isinstance(obj, EdeNet):
        doc = {
            "format": FORMAT_MARKER,
            "format_version": FORMAT_VERSION,
            "kind": "ede",
            "arch": obj.spec.to_dict(),
            "params": net_to_payload(obj),
        }
    elif isinstance(obj, EnsembleModel):
        doc = {
            "format": FORMAT_MARKER,
            "format_version": FORMAT_VERSION,
            "kind": "ensemble",
            "seed": obj.seed,
            "arch": obj.spec.to_dict(),
            "members": [net_to_payload(m) for m in obj.members],
        }
    else:
        raise TypeError(f"cannot save object of type {type(obj).__name__}")
    text = json.dumps(doc)
    with atomic_open(path) as fh:
        fh.write(text)


def load_model(path) -> EdeNet | EnsembleModel:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError("model file must hold a JSON object")
    if doc.get("format") != FORMAT_MARKER:
        raise FormatError(f"unrecognized format marker {doc.get('format')!r}")
    if doc.get("format_version") != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {doc.get('format_version')!r}")

    try:
        spec = ArchSpec.from_dict(doc["arch"])
    except KeyError as exc:
        raise FormatError(f"missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad arch block: {exc}") from exc

    kind = doc.get("kind")
    if kind == "ede":
        if "params" not in doc:
            raise FormatError("missing field 'params'")
        return net_from_payload(spec, doc["params"])
    if kind == "ensemble":
        if "members" not in doc or not doc["members"]:
            raise FormatError("ensemble file needs a nonempty 'members' list")
        members = [net_from_payload(spec, p) for p in doc["members"]]
        return EnsembleModel(spec=spec, members=members,
                             seed=int(doc.get("seed", 0)))
    raise FormatError(f"unknown model kind {kind!r}")


def load_any(path):
    """Load whichever model kind the file holds, regressors included."""
    import json as _json

    from .svr import SVR_KIND, load_svr

    try:
        doc = _json.loads(Path(path).read_text(encoding="utf-8"))
    except _json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc
    if isinstance(doc, dict) and doc.get("kind") == SVR_KIND:
        return load_svr(path)
    return load_model(path)
