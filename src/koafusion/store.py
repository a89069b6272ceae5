"""Cohort persistence: one JSON manifest plus VOL1 image files.

``save_cohort`` streams records to disk (safe for full-scale cohorts that do
not fit in memory); ``load_cohort`` returns records whose image references
are manifest entries resolved lazily by the provider.  ``json_fields`` is the
one typed reader for every JSON input: manifests, run configs, rank tables
and saved scores.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .cohort import SubjectRecord
from .errors import ContractViolation
from .imaging import Volume
from .relaxometry import MultiEchoVolume
from .vol1 import read_file, write_file, write_vol1

MANIFEST_NAME = "cohort.json"


def canonical_json(obj) -> str:
    """Stable serialization: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(path, obj) -> Path:
    """Write *obj* to *path* as canonical JSON, whole (see ``vol1.write_file``)."""
    return write_file(path, [canonical_json(obj).encode()])


def read_json(path):
    """Parse a JSON file; a missing, unreadable or malformed file is a ContractViolation."""
    raw = read_file(path)
    try:
        return json.loads(raw)
    except ValueError as exc:  # invalid JSON or undecodable bytes
        raise ContractViolation(f"{path}: not valid JSON ({exc})") from exc


# JSON field kinds for json_fields: (description, predicate).  ``type(v) is`` keeps
# booleans out of the numbers and integers, and floats out of the integers; a number
# must convert to a finite float (JSON integers are unbounded, and ``json.loads``
# reads NaN and Infinity as floats).
INT = ("an integer", lambda v: type(v) is int)
NUMBER = ("a finite number", lambda v: (type(v) is float and math.isfinite(v))
          or (type(v) is int and abs(v) <= sys.float_info.max))
BOOL = ("true or false", lambda v: type(v) is bool)
TEXT = ("a string", lambda v: type(v) is str)
TEXT_OR_NULL = ("a string or null", lambda v: v is None or type(v) is str)
OBJECT = ("an object", lambda v: type(v) is dict)


def list_of(kind, plural):
    return (f"a list of {plural}", lambda v: type(v) is list and all(kind[1](x) for x in v))


NUMBERS = list_of(NUMBER, "numbers")
_GRADES = ("an object of integer grades keyed by month", lambda v: type(v) is dict and all(
    m.isdecimal() and INT[1](g) for m, g in v.items()))
_IMAGES = ("an object of image references, each with a string 'path' (and, if present, a number"
           " list 'echo_times' and an integer 'dtype_bits')", lambda v: type(v) is dict and all(
    type(ref) is dict and TEXT[1](ref.get("path")) and NUMBERS[1](ref.get("echo_times", []))
    and INT[1](ref.get("dtype_bits", 0)) for ref in v.values()))
_SUBJECT_FIELDS = dict(subject_id=TEXT, age=NUMBER, sex=TEXT, bmi=NUMBER, womac_total=NUMBER,
                       prior_injury=BOOL, prior_surgery=BOOL, site=TEXT, klg_by_visit=_GRADES,
                       images=_IMAGES)


def json_fields(payload, where, **kinds) -> list:
    """``payload[k]`` for each keyword ``k=kind``; anything but a JSON object holding
    every key with a value of its kind is a ContractViolation naming *where* and the key."""
    if not isinstance(payload, dict):
        raise ContractViolation(f"{where}: expected a JSON object with {', '.join(kinds)}")
    for key, (description, check) in kinds.items():
        if key not in payload:
            raise ContractViolation(f"{where}: missing {key!r}")
        if not check(payload[key]):
            raise ContractViolation(f"{where}: {key!r} must be {description}")
    return [payload[k] for k in kinds]


def _save_image(ref, key: str, sid: str, image_dir: Path) -> dict:
    if isinstance(ref, dict):  # already on disk: point the new manifest at the same file
        return {**ref, "path": os.path.relpath(ref["path"], image_dir.parent)}
    path = image_dir / f"{sid}_{key}.vol1"
    if isinstance(ref, MultiEchoVolume):
        write_vol1(path, ref.data, spacing=tuple(ref.spacing) + (1.0,))
        return {"path": f"images/{path.name}", "echo_times": [float(t) for t in ref.echo_times]}
    if isinstance(ref, Volume):
        data = ref.data
        # integer-valued acquisitions of <= 16 bits roundtrip exactly as u16
        if (
            ref.dtype_bits <= 16
            and np.all(data >= 0)
            and np.all(data < 65536)
            and np.all(data == np.round(data))
        ):
            data = data.astype(np.uint16)
        write_vol1(path, data, spacing=ref.spacing)
        return {"path": f"images/{path.name}", "dtype_bits": int(ref.dtype_bits)}
    raise ContractViolation(f"unsupported image reference for {sid}/{key}")


def save_cohort(records, out_dir) -> Path:
    """Write every record's images and the manifest; returns the manifest path.

    A manifest already in *out_dir* is deleted before the first image is written, so an
    interrupted save leaves no manifest rather than one pointing at a mix of images.
    """
    out_dir = Path(out_dir)
    image_dir = out_dir / "images"
    manifest_path = out_dir / MANIFEST_NAME
    manifest_path.unlink(missing_ok=True)
    entries = []
    for rec in records:
        entry = {name: getattr(rec, name) for name in _SUBJECT_FIELDS if name != "images"}
        entry["klg_by_visit"] = {str(m): int(g) for m, g in sorted(rec.klg_by_visit.items())}
        entry["images"] = {key: _save_image(ref, key, rec.subject_id, image_dir)
                           for key, ref in sorted(rec.image_refs.items())}
        entries.append(entry)
    return write_json(manifest_path, {"format": "cohort/1", "subjects": entries})


def load_cohort(manifest_path) -> list:
    """Read a manifest back into records with path-based image references.

    An unreadable manifest, an entry with a missing or ill-typed field (booleans
    are JSON ``true``/``false``, grades are integers) or a subject id listed in
    two entries is a ContractViolation naming the entries and the field or id.
    """
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    payload = read_json(manifest_path)
    if not isinstance(payload, dict) or payload.get("format") != "cohort/1":
        raise ContractViolation(f"{manifest_path} is not a cohort manifest")
    if not isinstance(payload.get("subjects"), list):
        raise ContractViolation(f"{manifest_path} has no subjects list")
    records, entry_of = [], {}
    for i, entry in enumerate(payload["subjects"]):
        where = f"{manifest_path}: subject entry {i}"
        values = dict(zip(_SUBJECT_FIELDS, json_fields(entry, where, **_SUBJECT_FIELDS)))
        sid = values["subject_id"]
        if sid in entry_of:
            raise ContractViolation(f"{manifest_path}: subject id {sid!r} is listed twice,"
                                    f" in entries {entry_of[sid]} and {i}")
        entry_of[sid] = i
        for name in ("age", "bmi", "womac_total"):
            values[name] = float(values[name])
        values["klg_by_visit"] = {int(m): g for m, g in values["klg_by_visit"].items()}
        values["image_refs"] = {key: {**ref, "path": str(base / ref["path"])}
                                for key, ref in values.pop("images").items()}
        try:
            records.append(SubjectRecord(**values))
        except ContractViolation as exc:
            raise ContractViolation(f"{where}: {exc}") from exc
    return records
