"""Cohort persistence: one JSON manifest plus VOL1 image files.

``save_cohort`` streams records to disk (safe for full-scale cohorts that do
not fit in memory); ``load_cohort`` returns records whose image references
are manifest entries resolved lazily by the provider.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .cohort import SubjectRecord
from .errors import ContractViolation
from .imaging import Volume
from .relaxometry import MultiEchoVolume
from .vol1 import write_vol1

MANIFEST_NAME = "cohort.json"


def canonical_json(obj) -> str:
    """Stable serialization: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def read_json(path):
    """Parse a JSON file; a missing, unreadable or malformed file is a ContractViolation."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ContractViolation(f"{path}: cannot read ({exc.strerror or exc})") from exc
    except ValueError as exc:  # invalid JSON or undecodable bytes
        raise ContractViolation(f"{path}: not valid JSON ({exc})") from exc


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
    """Write every record's images and the manifest; returns the manifest path."""
    out_dir = Path(out_dir)
    image_dir = out_dir / "images"
    image_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for rec in records:
        images = {
            key: _save_image(ref, key, rec.subject_id, image_dir)
            for key, ref in sorted(rec.image_refs.items())
        }
        entries.append(
            {
                "subject_id": rec.subject_id,
                "age": rec.age,
                "sex": rec.sex,
                "bmi": rec.bmi,
                "womac_total": rec.womac_total,
                "prior_injury": rec.prior_injury,
                "prior_surgery": rec.prior_surgery,
                "site": rec.site,
                "klg_by_visit": {str(m): int(g) for m, g in sorted(rec.klg_by_visit.items())},
                "images": images,
            }
        )
    manifest_path = out_dir / MANIFEST_NAME
    manifest_path.write_text(canonical_json({"format": "cohort/1", "subjects": entries}))
    return manifest_path


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError("expected a string")
    return value


def _image_refs(images: dict, base: Path) -> dict:
    return {key: {**ref, "path": str(base / _text(ref["path"]))} for key, ref in images.items()}


def load_cohort(manifest_path) -> list:
    """Read a manifest back into records with path-based image references.

    An unreadable manifest, or a subject entry with a missing or ill-typed
    field, is a ContractViolation naming the entry and the field.
    """
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    payload = read_json(manifest_path)
    if not isinstance(payload, dict) or payload.get("format") != "cohort/1":
        raise ContractViolation(f"{manifest_path} is not a cohort manifest")
    if not isinstance(payload.get("subjects"), list):
        raise ContractViolation(f"{manifest_path} has no subjects list")
    fields = (
        ("subject_id", _text),
        ("age", float),
        ("sex", _text),
        ("bmi", float),
        ("womac_total", float),
        ("prior_injury", bool),
        ("prior_surgery", bool),
        ("site", _text),
        ("klg_by_visit", lambda d: {int(m): int(g) for m, g in d.items()}),
        ("images", lambda d: _image_refs(d, base)),
    )
    records = []
    for i, entry in enumerate(payload["subjects"]):
        values = {}
        for name, parse in fields:
            try:
                values[name] = parse(entry[name])
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                raise ContractViolation(
                    f"{manifest_path}: subject entry {i} has a missing or invalid {name!r}"
                ) from exc
        values["image_refs"] = values.pop("images")
        try:
            records.append(SubjectRecord(**values))
        except ContractViolation as exc:
            raise ContractViolation(f"{manifest_path}: subject entry {i}: {exc}") from exc
    return records
