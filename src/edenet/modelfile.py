"""Model persistence: the one reader and writer of every model file.

One tagged-JSON format covers ensembles and the Phase II kernel regressor
(the meta-learner). A document is the header {"format", "format_version",
"kind"} followed by that kind's payload; an ensemble's records its input
(columns, scaling) before its members. The "ede" kind, one net, is only
read, as a one-member ensemble. Floats go through Python's shortest-roundtrip
repr, so a save/load/save cycle is byte-identical and parameters reload
bit-exact. An ensemble's parameter arrays are encoded and written one at
a time, into the bytes json.dumps gives for the whole document.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .atomic import atomic_open
from .data import scaling_from_dict, scaling_to_dict
from .ensemble import EnsembleModel
from .errors import FormatError, from_fields, read_json
from .model import ArchSpec, net_from_payload
from .svr import SvrModel, svr_from_dict, svr_to_dict

FORMAT_MARKER = "edenet-model"
FORMAT_VERSION = 1


@dataclass(frozen=True)
class _EdePayload:
    arch: dict
    params: dict


@dataclass(frozen=True)
class _EnsemblePayload:
    arch: dict
    members: list
    seed: int = 0  # these three are absent from files that predate them
    columns: list | None = None
    scaling: dict | None = None


def _ede_from_dict(doc: dict) -> EnsembleModel:
    p = from_fields(_EdePayload, doc, "ede")
    spec = from_fields(ArchSpec, p.arch, "arch")
    return EnsembleModel(spec, [net_from_payload(spec, p.params)])


def _ensemble_to_dict(ens: EnsembleModel) -> dict:
    """The payload; its last key, members, holds the nets themselves, for
    save_model to encode one parameter array at a time."""
    return {"seed": ens.seed, "arch": ens.spec.to_dict(),
            "columns": ens.columns,
            "scaling": None if ens.scaling is None else scaling_to_dict(ens.scaling),
            "members": ens.members}


def _ensemble_from_dict(doc: dict) -> EnsembleModel:
    p = from_fields(_EnsemblePayload, doc, "ensemble")
    spec = from_fields(ArchSpec, p.arch, "arch")
    scaling = None if p.scaling is None else scaling_from_dict(p.scaling, "ensemble scaling")
    return EnsembleModel(spec, [net_from_payload(spec, m) for m in p.members], p.seed,
                         p.columns, scaling)


# kind -> payload decoder, and written kind -> (class, payload encoder)
_READERS = {"ede": _ede_from_dict, "ensemble": _ensemble_from_dict, "svr": svr_from_dict}
_WRITERS = {"ensemble": (EnsembleModel, _ensemble_to_dict), "svr": (SvrModel, svr_to_dict)}


def save_model(obj: EnsembleModel | SvrModel, path) -> None:
    for kind, (cls, to_dict) in _WRITERS.items():
        if isinstance(obj, cls):
            break
    else:
        raise TypeError(f"cannot save object of type {type(obj).__name__}")
    doc = {"format": FORMAT_MARKER, "format_version": FORMAT_VERSION,
           "kind": kind, **to_dict(obj)}
    members = doc.pop("members", None)
    text = json.dumps(doc)
    with atomic_open(path) as fh:
        if members is None:
            fh.write(text)
            return
        # json.dumps(doc) with members, the last key, written one
        # parameter array at a time
        fh.write(text[:-1] + ', "members": [')
        for i, net in enumerate(members):
            fh.write(", {" if i else "{")
            for j, (name, p) in enumerate(zip(net.param_names(), net.params())):
                fh.write((", " if j else "") + json.dumps(name) + ": " + json.dumps(p.tolist()))
            fh.write("}")
        fh.write("]}")


def load_model(path) -> EnsembleModel | SvrModel:
    """Whichever model the file holds. Anything malformed, from the JSON
    syntax to a single parameter's shape, raises FormatError."""
    doc = read_json(path, "model file", FormatError)
    if not isinstance(doc, dict):
        raise FormatError("model file must hold a JSON object")
    if doc.get("format") != FORMAT_MARKER:
        raise FormatError(f"unrecognized format marker {doc.get('format')!r}")
    version = doc.get("format_version")
    # type first: true and 1.0 compare equal to 1 but are not version 1
    if type(version) is not int or version != FORMAT_VERSION:
        raise FormatError(f"unsupported format version {version!r}")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _READERS:
        raise FormatError(f"unknown model kind {kind!r}")
    payload = {k: v for k, v in doc.items() if k not in ("format", "format_version", "kind")}
    try:
        return _READERS[kind](payload)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"bad {kind} model file: {exc}") from exc
